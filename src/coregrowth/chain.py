"""The finite k!-state Markov chain, solved exactly.

States are the reduced k-bounded partitions.  ``growth_steps`` is the one
growth-step rule, from any k-bounded partition: grow one column (a weak
cover), keep every multiplicity l_i mod (k-i+1) (which deletes the full
k-rectangles, ``step_target``), name the type whose ledger count rose, and
take the rate d(cover) / ((n+1) d(state)) from the dimension table.
A ``MarkovChain`` is its moves: construction derives ``index`` (each state's
position in ``states``, factorial-index order) and the sparse rows ``matrix``
from them, and refuses a target that is not a state.  ``build_chain`` reads
the steps out of each reduced state and certifies, in integers, that each row
sums to one and that each move conserves boxes (the target holds one box more
than its state, less the deleted rectangle); it raises ``InvariantError``
otherwise.  It assembles each k once per process: every later call returns
the same frozen chain, whose moves rho, the verifiers and the simulator read.

``stationary`` finds pi with pi P = pi in two steps.  The closed form
pi(s) = D(s) D(s^c) / Z, with D(lam) = d(lam) / |lam|! and s^c the
complement of s, proposes the candidate, computed in integers from the
dimensions the chain was built from (a conjecture, see the README).  The
exact check ``_verify_stationary`` (pi sums to one, is positive, and
pi P = pi over the rationals, computed in integers) is the certificate: only
a vector that passes it is returned.  A rejected candidate costs time, never
correctness: the exact fallback then solves the system modulo several
word-sized primes, combines the residues by CRT and rationally reconstructs
pi, adding primes until the reconstruction passes the same check.  Dense
rational Gaussian elimination (``_solve_fraction_gauss``) is kept only as
the reference that the tests compare both against.
``StationaryDistribution`` keeps lcd(pi) and the integer numerators
pi_i lcd, which the verifiers sum and compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, gcd, isqrt, lcm, prod

from coregrowth import dimensions
from coregrowth.partitions import (
    Parts,
    complement,
    enumerate_reduced_states,
    factorial_index,
    k_conjugate,
    multiplicities,
    parts_from_multiplicities,
    rectangle_area,
)
from coregrowth.posets import (
    enumerate_bounded,
    grown_column,
    weak_covers_bounded,
    weak_dim,
    weak_predecessors_bounded,
)
from coregrowth.reporting import CONJECTURE, THEOREM, InvariantError, Report
from coregrowth.tasep import alpha_inv, word_to_string


@dataclass(frozen=True, slots=True)
class Move:
    """One transition out of a state: grow ``column``, maybe drop a rectangle."""

    column: int
    target: Parts
    removed: int | None  # rectangle type deleted by this move, if any
    rate: Fraction


@dataclass(frozen=True)
class MarkovChain:
    """The chain on ``states``, stored as its moves; ``build_chain`` shares one per k.

    Construction derives ``index`` (state -> position) and the sparse rows
    ``matrix`` (the rates of each state's moves summed per target, in move
    order) from ``moves``, and raises ``InvariantError`` unless there is one
    row of moves per state and every target is a state.  ``moves`` is stored
    as tuples and the dict rows of ``matrix`` are read-only: a changed chain
    is a new one built from copies of the moves.
    """

    k: int
    states: tuple[Parts, ...]  # factorial-index order
    moves: tuple[tuple[Move, ...], ...]  # moves[i]: the moves out of states[i]
    index: dict[Parts, int] = field(init=False, repr=False, compare=False)  # state -> position
    matrix: tuple[dict[int, Fraction], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        moves = tuple(map(tuple, self.moves))
        if len(moves) != len(self.states):
            raise InvariantError(f"{len(moves)} rows of moves for {len(self.states)} states")
        index = {s: i for i, s in enumerate(self.states)}
        matrix: tuple[dict[int, Fraction], ...] = tuple({} for _ in moves)
        for src, steps, row in zip(self.states, moves, matrix):
            for move in steps:
                ti = index.get(move.target)
                if ti is None:
                    raise InvariantError(f"move {src!r} -> {move.target!r} leaves the reduced states")
                row[ti] = row[ti] + move.rate if ti in row else move.rate
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return len(self.states)

    def state_index(self, parts: Parts) -> int:
        """Position of ``parts`` in ``states``; ``factorial_index``'s ValueError for a non-state."""
        try:
            return self.index[parts]
        except (KeyError, TypeError):
            return factorial_index(parts, self.k)


@dataclass
class StationaryDistribution:
    """pi on ``chain.states``, with its common denominator and integer numerators.

    ``lcd`` and ``numerators`` (pi_i lcd, aligned with the states) are
    computed on first use and kept, so the verifiers sum and compare
    integers; ``values`` is not changed after that.
    """

    chain: MarkovChain
    values: list[Fraction]  # aligned with chain.states

    @cached_property
    def lcd(self) -> int:
        return lcm(*(v.denominator for v in self.values))

    @cached_property
    def numerators(self) -> tuple[int, ...]:
        lcd = self.lcd
        return tuple(v.numerator * (lcd // v.denominator) for v in self.values)

    def of(self, parts: Parts) -> Fraction:
        return self.values[self.chain.state_index(parts)]


def _rate_denominator(src: Parts, k: int) -> int:
    """(|src| + 1) d(src): every rate out of ``src`` is d(cover) over this."""
    return (sum(src) + 1) * dimensions.strong_dim_tableaux(src, k)


def step_rate(src: Parts, cover: Parts, k: int) -> Fraction:
    """Rate d(cover) / ((|src| + 1) d(src)) of the step from ``src`` to its weak cover."""
    return Fraction(dimensions.strong_dim_tableaux(cover, k), _rate_denominator(src, k))


def step_target(l: tuple[int, ...], column: int, k: int) -> tuple[tuple[int, ...], int | None]:
    """The reduced target's multiplicities after growing ``column`` on l, and the type it completes.

    Growing column c moves one part from size c-1 to size c (c = 1 adds a
    part), so l_{c-1} falls by one and l_c rises by one; the target keeps
    every l_i mod (k-i+1).  Only type c can gain a rectangle, and it does
    exactly when l_c + 1 is a multiple of k-c+1: that is the type whose
    ledger count ``reduce_rectangles`` of the cover would raise.
    """
    grown = list(l)
    grown[column - 1] += 1
    if column > 1:
        grown[column - 2] -= 1
    reduced = [m % (k - i) for i, m in enumerate(grown)]
    return tuple(reduced), column if reduced[column - 1] == 0 else None


def growth_steps(parts: Parts, k: int) -> list[Move]:
    """One ``Move`` per weak cover of a k-bounded partition.

    The column is the one the cover grew, and ``step_target`` reads the
    target and the completed rectangle type off the multiplicity vector,
    with no rectangle deletion per cover.  Every rate shares the
    denominator (|parts| + 1) d(parts).
    """
    l = multiplicities(parts, k)
    denominator = _rate_denominator(parts, k)
    out = []
    for cover in weak_covers_bounded(parts, k):
        column = grown_column(parts, cover)
        reduced, removed = step_target(l, column, k)
        rate = Fraction(dimensions.strong_dim_tableaux(cover, k), denominator)
        out.append(Move(column, _state(reduced, k), removed, rate))
    return out


def _state(l: tuple[int, ...], k: int) -> Parts:
    """The partition with multiplicities l, as the shared tuple of its state if it is one.

    A state (l_i <= k - i) sits at its factorial index sum l_i (k-i)! in
    ``enumerate_reduced_states(k)``.  Any other l gets a fresh tuple, which
    ``MarkovChain`` then refuses as a target.
    """
    if any(m > k - i for i, m in enumerate(l, start=1)):
        return parts_from_multiplicities(l)
    return enumerate_reduced_states(k)[sum(m * factorial(k - i) for i, m in enumerate(l, start=1))]


_CHAINS: dict[int, MarkovChain] = {}


def build_chain(k: int) -> MarkovChain:
    """The exact transition structure on all k! reduced states.

    Assembled and certified once per process and k; every call returns that
    one shared chain.
    """
    chain = _CHAINS.get(k)
    if chain is None:
        chain = _CHAINS[k] = _assemble(k)
    return chain


def _assemble(k: int) -> MarkovChain:
    """Read every state's steps and certify each row with integers.

    Every rate out of ``src`` has a denominator dividing D = (|src| + 1)
    d(src), so the row sums to one exactly when the numerators scaled to D
    sum to D.  Each move must also conserve boxes; ``MarkovChain`` checks
    that it lands on a reduced state.
    """
    if k < 2:
        raise ValueError("the finite chain needs k >= 2")
    states = enumerate_reduced_states(k)
    moves: list[list[Move]] = []
    for src in states:
        n = sum(src)
        steps = growth_steps(src, k)
        denominator = _rate_denominator(src, k)
        scaled = 0
        for move in steps:
            area = rectangle_area(move.removed, k) if move.removed else 0
            if sum(move.target) != n + 1 - area:
                raise InvariantError(f"move {src!r} -> {move.target!r} does not conserve boxes")
            quotient, rest = divmod(denominator, move.rate.denominator)
            if rest:
                raise InvariantError(
                    f"rate {move.rate} of {src!r} -> {move.target!r} is not over {denominator}"
                )
            scaled += move.rate.numerator * quotient
        if scaled != denominator:
            raise InvariantError(f"row of {src!r} sums to {Fraction(scaled, denominator)}, not 1")
        moves.append(steps)
    return MarkovChain(k, states, moves)


def is_irreducible(chain: MarkovChain) -> bool:
    """Strong connectivity of the transition digraph."""
    n = chain.size
    rev: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(chain.matrix):
        for j in row:
            rev[j].append(i)
    for adj in (chain.matrix, rev):
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            return False
    return True


# --- exact linear solve ---------------------------------------------------

def _stationary_system(chain: MarkovChain) -> list[dict[int, Fraction]]:
    """Sparse rows of the augmented matrix [A | e_0] of A pi = e_0.

    Every entry is a Fraction; column n is the right-hand side.  Row 0 is
    sum pi = 1; row j >= 1 is row j of P^T - I, the balance of state j.  The
    balance of state 0 is the one the normalization replaces.
    """
    n = chain.size
    rows: list[dict[int, Fraction]] = [dict.fromkeys(range(n + 1), Fraction(1))]
    rows += [{} for _ in range(1, n)]
    for i, row in enumerate(chain.matrix):
        for j, rate in row.items():
            if j:
                rows[j][i] = rate
    for j in range(1, n):
        rows[j][j] = rows[j].get(j, Fraction(0)) - 1
    return rows


def _solve_fraction_gauss(chain: MarkovChain) -> list[Fraction]:
    """Dense exact elimination of the normalized stationary system.

    Not called by ``stationary``: the tests use it as the independent
    reference that the closed-form candidate and ``_solve_crt`` must
    reproduce.
    """
    n = chain.size
    a = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for r, row in enumerate(_stationary_system(chain)):
        for c, v in row.items():
            a[r][c] = v
    for col in range(n):
        piv = max(
            range(col, n),
            key=lambda r: abs(a[r][col].numerator) if a[r][col] else -1,
        )
        if not a[piv][col]:
            raise InvariantError("singular stationary system; chain not irreducible?")
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col]
        inv = 1 / pivot[col]
        # a column where the pivot row is zero does not change
        support = [c for c in range(col, n + 1) if pivot[c]]
        for c in support:
            pivot[c] *= inv
        for r in range(n):
            f = a[r][col]
            if r != col and f:
                row = a[r]
                for c in support:
                    row[c] -= f * pivot[c]
    return [a[i][n] for i in range(n)]


_PRIMES = [2147483629, 2147483587, 2147483563, 2147483549, 2147483543, 2147483497]


def _solve_mod_p(system: list[dict[int, Fraction]], p: int):
    """Solve the normalized stationary system over GF(p) with numpy.

    None when an entry's denominator or a pivot vanishes modulo p.
    """
    import numpy as np

    n = len(system)
    a = np.zeros((n, n + 1), dtype=np.int64)
    for r, row in enumerate(system):
        for c, v in row.items():
            den = v.denominator % p
            if den == 0:
                return None
            a[r, c] = v.numerator * pow(den, -1, p) % p
    for col in range(n):
        piv = col + int(np.argmax(a[col:, col] != 0))
        if a[piv, col] == 0:
            return None
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
        inv = pow(int(a[col, col]), -1, p)
        a[col] = (a[col] * inv) % p
        mask = a[:, col] != 0
        mask[col] = False
        if mask.any():
            a[mask] = (a[mask] - np.outer(a[mask, col], a[col])) % p
    return [int(x) for x in a[:, n]]


def _rational_reconstruct(residue: int, modulus: int) -> Fraction | None:
    """Smallest num/den with num, den <= sqrt(modulus/2) hitting the residue."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, residue % modulus
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound or gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1 if s1 > 0 else -r1, abs(s1))


def _solve_crt(chain: MarkovChain) -> list[Fraction]:
    """Exact pi from residues modulo growing sets of primes.

    Each usable prime p with solution s takes one CRT step per state,
    x <- x + m ((s - x) m^-1 mod p), then m <- m p; reconstruction starts at
    the second prime.  Returns only a vector that passed ``_verify_stationary``.
    """
    system = _stationary_system(chain)
    xs, m = [0] * chain.size, 1
    for p in _PRIMES:
        sol = _solve_mod_p(system, p)
        if sol is None:
            continue
        inv = pow(m, -1, p)
        xs = [x + m * ((s - x) * inv % p) for x, s in zip(xs, sol)]
        m *= p
        if m == p:
            continue
        combined = []
        for x in xs:
            frac = _rational_reconstruct(x, m)
            if frac is None:
                break
            combined.append(frac)
        if len(combined) != chain.size:
            continue
        try:
            _verify_stationary(chain, combined)
        except InvariantError:
            continue  # modulus still too small; add another prime
        return combined
    raise InvariantError("stationary solve failed to reconstruct an exact solution")


def _common_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """(N, L) with sum a/b = N/L over the terms (a, b), L the lcm of the b's; integers only."""
    common = lcm(*(b for _a, b in terms))
    return sum(a * (common // b) for a, b in terms), common


def _verify_stationary(chain: MarkovChain, pi: list[Fraction]) -> None:
    """pi sums to 1, is positive and satisfies pi P = pi, exactly and in integers.

    With L = lcd(pi) and n_i = pi_i L, the checks are sum n_i = L, n_i > 0,
    and for each state j, sum_i n_i P_ij = n_j.
    """
    dist = StationaryDistribution(chain, pi)
    nums = dist.numerators
    if sum(nums) != dist.lcd:
        raise InvariantError("stationary vector does not sum to 1")
    if min(nums) <= 0:
        raise InvariantError("stationary vector has a non-positive entry")
    inflow: list[list[tuple[int, int]]] = [[] for _ in nums]
    for num, row in zip(nums, chain.matrix):
        for j, rate in row.items():
            inflow[j].append((num * rate.numerator, rate.denominator))
    for num, terms in zip(nums, inflow):
        total, common = _common_sum(terms)
        if total != num * common:
            raise InvariantError("pi P != pi")


def _conjugates(chain: MarkovChain) -> list[int]:
    """conj[i]: the position of the k-conjugate of state i."""
    return [chain.index[k_conjugate(s, chain.k)] for s in chain.states]


def _closed_form_candidate(chain: MarkovChain) -> list[Fraction]:
    """pi(s) = D(s) D(s^c) / Z with D(lam) = d(lam) / |lam|!, in integers.

    A state and its complement s^c together hold l_i = k - i parts of each
    size i, so |s| + |s^c| = C(k+1, 3) = N for every state, and N! D(s)
    D(s^c) is the integer C(N, |s|) d(s) d(s^c).  The complement of the
    state at factorial index i is the one at k! - 1 - i.  Every d is an entry
    the chain's rates already read from the dimension table.
    """
    k = chain.k
    total = comb(k + 1, 3)
    dims = [dimensions.strong_dim_tableaux(s, k) for s in chain.states]
    weights = [
        comb(total, sum(s)) * d * d_comp
        for s, d, d_comp in zip(chain.states, dims, reversed(dims))
    ]
    z = sum(weights)
    return [Fraction(w, z) for w in weights]


def stationary(chain: MarkovChain) -> StationaryDistribution:
    """Exact stationary distribution, certified by direct multiplication."""
    if not is_irreducible(chain):
        raise InvariantError("chain is not irreducible")
    candidate = _closed_form_candidate(chain)
    try:
        _verify_stationary(chain, candidate)
        return StationaryDistribution(chain, candidate)
    except InvariantError:
        pass  # a wrong candidate costs time only: solve exactly
    return StationaryDistribution(chain, _solve_crt(chain))


# --- rectangle rates and the k-Plancherel family --------------------------

def rho_vector(chain: MarkovChain, pi: StationaryDistribution) -> list[Fraction]:
    """Long-run rate of creation (= removal) of each rectangle type.

    Summed in integers: each term pi_s rate is (pi_s lcd) a / (lcd b) for the
    rate a/b, and a type's terms are scaled to the lcm of its b's.
    """
    flows: list[list[tuple[int, int]]] = [[] for _ in range(chain.k)]
    for moves, num in zip(chain.moves, pi.numerators):
        for m in moves:
            if m.removed is not None:
                flows[m.removed - 1].append((num * m.rate.numerator, m.rate.denominator))
    out = []
    for terms in flows:
        total, common = _common_sum(terms)
        out.append(Fraction(total, pi.lcd * common))
    return out


def k_plancherel(k: int, n: int) -> dict[Parts, Fraction]:
    """The measure w * d / n! on k-bounded partitions of n; ``verify_normalization`` checks its sum."""
    return {
        lam: Fraction(weak_dim(lam, k) * dimensions.strong_dim_tableaux(lam, k), factorial(n))
        for lam in enumerate_bounded(k, n)
    }


# --- verifiers ------------------------------------------------------------

def verify_pieri_row_sums(chain: MarkovChain) -> Report:
    sums = (
        _common_sum([(m.rate.numerator, m.rate.denominator) for m in moves])
        for moves in chain.moves
    )
    bad = [s for s, (total, common) in zip(chain.states, sums) if total != common]
    return Report(
        "pieri-row-sums", THEOREM, not bad, {"k": chain.k}, bad[0] if bad else None
    )


def verify_rate_one_over_k(chain: MarkovChain) -> Report:
    """Adding to column 1 when l_1 = k-1 must have rate exactly 1/k."""
    k = chain.k
    bad = None
    checked = 0
    for s, moves in zip(chain.states, chain.moves):
        if multiplicities(s, k)[0] != k - 1:
            continue
        checked += 1
        col1 = [m for m in moves if m.column == 1]
        if len(col1) != 1 or col1[0].rate != Fraction(1, k):
            bad = {"state": s, "moves": [(m.column, str(m.rate)) for m in moves]}
            break
    return Report(
        "column-one-rate-1/k", THEOREM, bad is None, {"k": k, "states": checked}, bad
    )


def verify_conjugation_symmetry(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    """P and pi are invariant under k-conjugation of states."""
    conj = _conjugates(chain)
    nums = pi.numerators
    bad = [
        s
        for s, row, c in zip(chain.states, chain.matrix, conj)
        if {conj[j]: rate for j, rate in row.items()} != chain.matrix[c]
    ]
    bad += [s for s, num, c in zip(chain.states, nums, conj) if num != nums[c]]
    witness = {"state": bad[0]} if bad else None
    return Report("conjugation-symmetry", THEOREM, not bad, {"k": chain.k}, witness)


def verify_rho_symmetry(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    rho = rho_vector(chain, pi)
    ok = all(rho[i - 1] == rho[chain.k - i] for i in range(1, chain.k + 1))
    conserved = sum(
        rho[i - 1] * rectangle_area(i, chain.k) for i in range(1, chain.k + 1)
    )
    return Report(
        "rho-symmetry-and-box-flow",
        THEOREM,
        ok and conserved == 1,
        {"k": chain.k, "rho": [str(r) for r in rho], "area_flow": str(conserved)},
    )


def verify_complement(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    """pi is invariant under complement, l_i -> (k-i) - l_i.

    Complementing maps each factorial-index digit l_i to (k-i) - l_i, so the
    state at index i has its complement at k! - 1 - i.
    """
    k = chain.k
    nums = pi.numerators
    bad = [s for s, num, comp in zip(chain.states, nums, reversed(nums)) if num != comp]
    witness = {"state": bad[0], "complement": complement(bad[0], k)} if bad else None
    return Report("complement-symmetry", CONJECTURE, not bad, {"k": k}, witness)


def mk_constant(k: int) -> int:
    out = 1
    for j in range(1, k + 1):
        out *= comb(2 * j, j)
    return out


def verify_lcd_and_mk(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    k = chain.k
    lcd = pi.lcd
    mk = mk_constant(k)
    # Every pi_i M_k is an integer exactly when lcd(pi) divides M_k.
    scale, rest = divmod(mk, lcd)
    numerators = {
        str(i): str(num * scale if not rest else Fraction(num * mk, lcd))
        for i, num in enumerate(pi.numerators)
    }
    return Report(
        "lcd-divides-Mk",
        CONJECTURE,
        not rest,
        {"k": k, "lcd": lcd, "Mk": mk, "A_table": numerators},
    )


def verify_minimum(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    """Minimum value, multiplicity 2^(k-1), and which l-pattern the minimizers fit."""
    k = chain.k
    predicted = Fraction((k + 1) * prod(comb(k, j) for j in range(1, k + 1)), mk_constant(k))
    least = min(pi.numerators)
    mn = Fraction(least, pi.lcd)
    argmin = [s for s, num in zip(chain.states, pi.numerators) if num == least]
    pattern_zero_or_max = all(
        all(l in (0, k - i) for i, l in enumerate(multiplicities(s, k), start=1))
        for s in argmin
    )
    pattern_zero_or_iminus1 = all(
        all(l in (0, i - 1) for i, l in enumerate(multiplicities(s, k), start=1))
        for s in argmin
    )
    ok = mn == predicted and len(argmin) == 2 ** (k - 1)
    return Report(
        "minimum-value",
        CONJECTURE,
        ok,
        {
            "k": k,
            "min": str(mn),
            "predicted": str(predicted),
            "multiplicity": len(argmin),
            "expected_multiplicity": 2 ** (k - 1),
            "minimizers_match_l_in_{0,k-i}": pattern_zero_or_max,
            "minimizers_match_l_in_{0,i-1}": pattern_zero_or_iminus1,
        },
        None if ok else {"minimizers": argmin},
    )


def verify_position_of_k(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    """Pr[k sits at word position j] vs Pr[l_1 = j-1], per j."""
    k = chain.k
    by_position = [0] * k
    by_ones = [0] * k
    for s, num in zip(chain.states, pi.numerators):
        by_position[alpha_inv(s, k).index(k)] += num
        by_ones[multiplicities(s, k)[0]] += num
    ok = by_position == by_ones
    by_position = [Fraction(x, pi.lcd) for x in by_position]
    by_ones = [Fraction(x, pi.lcd) for x in by_ones]
    return Report(
        "position-of-k",
        CONJECTURE,
        ok,
        {
            "k": k,
            "by_position": [str(x) for x in by_position],
            "by_ones": [str(x) for x in by_ones],
        },
    )


def verify_rho_conjecture(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    k = chain.k
    rho = rho_vector(chain, pi)
    target = Fraction(1, comb(k + 2, 3))
    ok = all(r == target for r in rho)
    return Report(
        "rho-equals-1/C(k+2,3)",
        CONJECTURE,
        ok,
        {"k": k, "rho": [str(r) for r in rho], "target": str(target)},
    )


def verify_stationarity_identity(k: int, n: int) -> Report:
    """One-step invariance of the k-Plancherel family on the infinite chain."""
    bad = None
    prev = k_plancherel(k, 0)
    for m in range(1, n + 1):
        measure = k_plancherel(k, m)
        for lam, value in measure.items():
            inflow = sum(
                (prev[mu] * step_rate(mu, lam, k) for mu in weak_predecessors_bounded(lam, k)),
                Fraction(0),
            )
            if inflow != value:
                bad = {"n": m, "state": lam, "lhs": str(value), "rhs": str(inflow)}
                break
        if bad:
            break
        prev = measure
    return Report(
        "plancherel-one-step-invariance", THEOREM, bad is None, {"k": k, "n": n}, bad
    )


def verify_normalization(k: int, n_max: int) -> Report:
    """Sum of w * d over k-bounded partitions of n equals n!: ``k_plancherel`` sums to one."""
    bad = None
    for n in range(1, n_max + 1):
        total = sum(k_plancherel(k, n).values())
        if total != 1:
            bad = {"n": n, "total": int(total * factorial(n))}
            break
    return Report(
        "cauchy-normalization", THEOREM, bad is None, {"k": k, "n_max": n_max}, bad
    )


# --- serialization ----------------------------------------------------------

def chain_to_json(chain: MarkovChain, pi: StationaryDistribution, reports: list[Report]) -> str:
    k = chain.k
    payload = {
        "format": "coregrowth.chain.v1",
        "k": k,
        "states": [
            {
                "index": i,
                "parts": list(s),
                "l": list(multiplicities(s, k)),
                "word": word_to_string(alpha_inv(s, k)),
            }
            for i, s in enumerate(chain.states)
        ],
        "matrix": [
            {"from": i, "to": j, "rate": str(rate)}
            for i, row in enumerate(chain.matrix)
            for j, rate in sorted(row.items())
        ],
        "pi": {str(i): str(v) for i, v in enumerate(pi.values)},
        "lcd": pi.lcd,
        "rho": [str(r) for r in rho_vector(chain, pi)],
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def pi_csv(chain: MarkovChain, pi: StationaryDistribution) -> str:
    """CSV of the stationary vector keyed by factorial index."""
    lines = ["index,parts,numerator,denominator,value"]
    for i, s in enumerate(chain.states):
        v = pi.values[i]
        lines.append(
            '%d,"%s",%d,%d,%.12g'
            % (i, " ".join(map(str, s)), v.numerator, v.denominator, float(v))
        )
    return "\n".join(lines) + "\n"
