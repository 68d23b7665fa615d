"""The finite k!-state Markov chain, solved exactly.

States are the reduced k-bounded partitions.  ``growth_steps`` is the one
growth-step rule, from any k-bounded partition: grow one column (a weak
cover), delete full k-rectangles, name the type whose ledger count rose, and
take the rate d(cover) / ((n+1) d(state)) from ``step_rate``.
``build_chain`` reads the steps out of each reduced state and certifies that
each row sums to one and that each move conserves boxes (the target holds
one box more than its state, less the deleted rectangle); it raises
``InvariantError`` otherwise.  It assembles each k once per process: every
later call returns the same frozen ``MarkovChain``, whose ``index`` maps
each state to its position in ``states`` (factorial-index order), so state
lookups cost one dict probe.  The TASEP verifiers and the simulator read
the moves from the built chain.

``stationary`` finds pi with pi P = pi in three steps.  A float64 solve of
the normalized system proposes x; the candidate is round(x_i M_k) / M_k,
with M_k = prod_j C(2j, j) the conjectured common denominator.  The exact
check ``_verify_stationary`` (pi sums to one, is positive, and pi P = pi
over the rationals) is the certificate: only a vector that passes it is
returned.  A rejected or non-finite candidate costs time, never correctness:
the exact fallback then solves the system modulo several word-sized primes,
combines the residues by CRT and rationally reconstructs pi, adding primes
until the reconstruction passes the same check.  Dense rational Gaussian
elimination (``_solve_fraction_gauss``) is kept only as the reference that
the tests compare the CRT solve against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, isqrt

from coregrowth import dimensions
from coregrowth.partitions import (
    Parts,
    complement,
    enumerate_reduced_states,
    factorial_index,
    k_conjugate,
    multiplicities,
    rectangle_area,
    reduce_rectangles,
)
from coregrowth.posets import (
    enumerate_bounded,
    grown_column,
    weak_covers_bounded,
    weak_dim,
    weak_predecessors_bounded,
)
from coregrowth.reporting import CONJECTURE, THEOREM, InvariantError, Report


@dataclass(frozen=True)
class Move:
    """One transition out of a state: grow ``column``, maybe drop a rectangle."""

    column: int
    target: Parts
    removed: int | None  # rectangle type deleted by this move, if any
    rate: Fraction


@dataclass(frozen=True)
class MarkovChain:
    """The chain on ``states``; ``build_chain`` hands one instance to every caller.

    ``moves`` and ``matrix`` are stored as tuples, and the dict rows of
    ``matrix`` are read-only: a caller that needs a changed chain builds a
    new one from copies of the rows.
    """

    k: int
    states: tuple[Parts, ...]  # factorial-index order
    moves: tuple[tuple[Move, ...], ...]  # moves[i]: the moves out of states[i]
    matrix: tuple[dict[int, Fraction], ...]  # sparse rows, aggregated over moves
    index: dict[Parts, int] = field(init=False, repr=False, compare=False)  # state -> position

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(map(tuple, self.moves)))
        object.__setattr__(self, "matrix", tuple(self.matrix))
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.states)})

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
    chain: MarkovChain
    values: list[Fraction]  # aligned with chain.states

    @property
    def lcd(self) -> int:
        return reduce(lambda a, b: a * b // gcd(a, b), (v.denominator for v in self.values), 1)

    def of(self, parts: Parts) -> Fraction:
        return self.values[self.chain.state_index(parts)]


def step_rate(src: Parts, cover: Parts, k: int) -> Fraction:
    """Rate d(cover) / ((|src| + 1) d(src)) of the step from ``src`` to its weak cover."""
    return Fraction(
        dimensions.strong_dim_tableaux(cover, k),
        (sum(src) + 1) * dimensions.strong_dim_tableaux(src, k),
    )


def growth_steps(parts: Parts, k: int) -> list[Move]:
    """One ``Move`` per weak cover of a k-bounded partition.

    The target is the cover with its full k-rectangles deleted; ``removed``
    is the rectangle type whose ledger count the step raises, if any.
    """
    base = reduce_rectangles(parts, k)[1]
    out = []
    for cover in weak_covers_bounded(parts, k):
        target, ledger = reduce_rectangles(cover, k)
        removed = next((i for i, (b, c) in enumerate(zip(base, ledger), start=1) if c > b), None)
        out.append(Move(grown_column(parts, cover), target, removed, step_rate(parts, cover, k)))
    return out


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
    if k < 2:
        raise ValueError("the finite chain needs k >= 2")
    states = enumerate_reduced_states(k)
    index = {s: i for i, s in enumerate(states)}
    moves: list[list[Move]] = []
    matrix: list[dict[int, Fraction]] = []
    for src in states:
        n = sum(src)
        steps = growth_steps(src, k)
        row: dict[int, Fraction] = {}
        for move in steps:
            area = rectangle_area(move.removed, k) if move.removed else 0
            if sum(move.target) != n + 1 - area:
                raise InvariantError(f"move {src!r} -> {move.target!r} does not conserve boxes")
            ti = index.get(move.target)
            if ti is None:
                raise InvariantError(f"move {src!r} -> {move.target!r} leaves the reduced states")
            row[ti] = row.get(ti, Fraction(0)) + move.rate
        total = sum(m.rate for m in steps)
        if total != 1:
            raise InvariantError(f"row of {src!r} sums to {total}, not 1")
        moves.append(steps)
        matrix.append(row)
    return MarkovChain(k, states, moves, matrix)


def is_irreducible(chain: MarkovChain) -> bool:
    """Strong connectivity of the transition digraph."""
    n = chain.size
    fwd = [list(row) for row in chain.matrix]
    rev: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(chain.matrix):
        for j in row:
            rev[j].append(i)
    for adj in (fwd, rev):
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
    reference that ``_solve_crt`` must reproduce.
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

    Returns only a vector that passed ``_verify_stationary``.
    """
    system = _stationary_system(chain)
    residues: list[list[int]] = []
    primes_used: list[int] = []
    for p in _PRIMES:
        sol = _solve_mod_p(system, p)
        if sol is None:
            continue
        residues.append(sol)
        primes_used.append(p)
        if len(primes_used) < 2:
            continue
        combined = []
        for idx in range(chain.size):
            x, m = 0, 1
            for res, q in zip(residues, primes_used):
                t = ((res[idx] - x) * pow(m, -1, q)) % q
                x += m * t
                m *= q
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


def _verify_stationary(chain: MarkovChain, pi: list[Fraction]) -> None:
    if sum(pi) != 1:
        raise InvariantError("stationary vector does not sum to 1")
    if any(v <= 0 for v in pi):
        raise InvariantError("stationary vector has a non-positive entry")
    inflow = [Fraction(0)] * chain.size
    for i, row in enumerate(chain.matrix):
        for j, rate in row.items():
            inflow[j] += pi[i] * rate
    if inflow != pi:
        raise InvariantError("pi P != pi")


def _float_candidate(chain: MarkovChain) -> list[Fraction] | None:
    """round(x M_k) / M_k for the float64 solution x of the normalized system.

    None when the solve fails or is not finite.
    """
    import numpy as np

    n = chain.size
    a = np.zeros((n, n + 1))
    for r, row in enumerate(_stationary_system(chain)):
        for c, v in row.items():
            a[r, c] = float(v)
    try:
        x = np.linalg.solve(a[:, :n], a[:, n])
    except np.linalg.LinAlgError:
        return None
    mk = mk_constant(chain.k)
    scaled = np.rint(x * float(mk))
    if not np.isfinite(scaled).all():
        return None
    return [Fraction(int(v), mk) for v in scaled]


def stationary(chain: MarkovChain) -> StationaryDistribution:
    """Exact stationary distribution, certified by direct multiplication."""
    if not is_irreducible(chain):
        raise InvariantError("chain is not irreducible")
    candidate = _float_candidate(chain)
    if candidate is not None:
        try:
            _verify_stationary(chain, candidate)
            return StationaryDistribution(chain, candidate)
        except InvariantError:
            pass  # a wrong candidate costs time only: solve exactly
    return StationaryDistribution(chain, _solve_crt(chain))


# --- rectangle rates and the k-Plancherel family --------------------------

def rho_vector(chain: MarkovChain, pi: StationaryDistribution) -> list[Fraction]:
    """Long-run rate of creation (= removal) of each rectangle type."""
    out = [Fraction(0)] * chain.k
    for moves, p in zip(chain.moves, pi.values):
        for m in moves:
            if m.removed is not None:
                out[m.removed - 1] += p * m.rate
    return out


def k_plancherel(k: int, n: int) -> dict[Parts, Fraction]:
    """The measure w * d / n! on k-bounded partitions of n; sums to one."""
    out = {}
    for lam in enumerate_bounded(k, n):
        out[lam] = Fraction(
            weak_dim(lam, k) * dimensions.strong_dim_tableaux(lam, k), factorial(n)
        )
    total = sum(out.values())
    if total != 1:
        raise InvariantError(f"measure sums to {total}, not 1")
    return out


# --- verifiers ------------------------------------------------------------

def verify_pieri_row_sums(chain: MarkovChain) -> Report:
    bad = [
        s
        for s, moves in zip(chain.states, chain.moves)
        if sum(m.rate for m in moves) != 1
    ]
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
    k = chain.k
    conj = [chain.index[k_conjugate(s, k)] for s in chain.states]
    for i, row in enumerate(chain.matrix):
        mapped = {conj[j]: rate for j, rate in row.items()}
        if mapped != chain.matrix[conj[i]]:
            return Report(
                "conjugation-symmetry",
                THEOREM,
                False,
                {"k": k},
                {"state": chain.states[i]},
            )
    for i in range(chain.size):
        if pi.values[i] != pi.values[conj[i]]:
            return Report(
                "conjugation-symmetry",
                THEOREM,
                False,
                {"k": k},
                {"state": chain.states[i]},
            )
    return Report("conjugation-symmetry", THEOREM, True, {"k": k})


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
    k = chain.k
    bad = None
    for s in chain.states:
        if pi.of(s) != pi.of(complement(s, k)):
            bad = {"state": s, "complement": complement(s, k)}
            break
    return Report("complement-symmetry", CONJECTURE, bad is None, {"k": k}, bad)


def mk_constant(k: int) -> int:
    out = 1
    for j in range(1, k + 1):
        out *= comb(2 * j, j)
    return out


def verify_lcd_and_mk(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    k = chain.k
    lcd = pi.lcd
    mk = mk_constant(k)
    numerators = {str(i): str(v * mk) for i, v in enumerate(pi.values)}
    integral = all(v * mk == int(v * mk) for v in pi.values)
    return Report(
        "lcd-divides-Mk",
        CONJECTURE,
        mk % lcd == 0 and integral,
        {"k": k, "lcd": lcd, "Mk": mk, "A_table": numerators},
    )


def verify_minimum(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    """Minimum value, multiplicity 2^(k-1), and which l-pattern the minimizers fit."""
    k = chain.k
    predicted = Fraction((k + 1) * _prod_binom(k), mk_constant(k))
    mn = min(pi.values)
    argmin = [s for s, v in zip(chain.states, pi.values) if v == mn]
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


def _prod_binom(k: int) -> int:
    out = 1
    for j in range(1, k + 1):
        out *= comb(k, j)
    return out


def verify_position_of_k(chain: MarkovChain, pi: StationaryDistribution) -> Report:
    """Pr[k sits at word position j] vs Pr[l_1 = j-1], per j."""
    from coregrowth.tasep import alpha_inv

    k = chain.k
    by_position = [Fraction(0)] * k
    by_ones = [Fraction(0)] * k
    for s, v in zip(chain.states, pi.values):
        by_position[alpha_inv(s, k).index(k)] += v
        by_ones[multiplicities(s, k)[0]] += v
    ok = by_position == by_ones
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
    for m in range(1, n + 1):
        measure = k_plancherel(k, m)
        prev = k_plancherel(k, m - 1)
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
    return Report(
        "plancherel-one-step-invariance", THEOREM, bad is None, {"k": k, "n": n}, bad
    )


def verify_normalization(k: int, n_max: int) -> Report:
    """Sum of w * d over k-bounded partitions of n equals n!."""
    bad = None
    for n in range(1, n_max + 1):
        total = sum(
            weak_dim(lam, k) * dimensions.strong_dim_tableaux(lam, k)
            for lam in enumerate_bounded(k, n)
        )
        if total != factorial(n):
            bad = {"n": n, "total": total}
            break
    return Report(
        "cauchy-normalization", THEOREM, bad is None, {"k": k, "n_max": n_max}, bad
    )


# --- serialization ----------------------------------------------------------

def chain_to_json(chain: MarkovChain, pi: StationaryDistribution, reports: list[Report]) -> str:
    from coregrowth.tasep import alpha_inv, word_to_string

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
