"""Two independent engines for the k-analog dimension of a bounded partition.

``strong_dim_tableaux`` counts marked chains of strong covers by a dynamic
program over (k+1)-cores: with weight (1, ..., 1) every step may mark any
connected component of its skew shape, so each cover contributes its
component count.  The strong covers of a core kappa are the cores of the
level below that it contains.  Each level below is indexed once by length
and then by first part, so kappa scans only the cores no longer than it
whose first part is at most kappa[0]; ``contains`` stays the exact test
on each of them.  Transposition maps the (k+1)-cores of a level onto
themselves, since the level counts the cells of hook length at most k, and
it keeps containment and the components of every skew shape; so
d(kappa) = d(kappa^T), and each sum is stored under both cores of its
transposed pair.  The table is a memo: a lookup fills its core and the
covers below it not yet known, so it computes the strong-order ideal of
the cores asked for and its transpose, not whole levels.
``dimension_table`` without a core still fills every core up to a level.

``strong_dim_raising`` expands the defining operator product

    prod_{i=1..len} prod_{j=i+1..k-parts_i+i} (1 - R_ij)

over exponent vectors of complete homogeneous functions; R_ij moves one unit
from entry j to entry i, and a vector with a negative entry contributes
coefficient zero.  The product is expanded by a row-wise convolution that
finalizes one entry per row and carries only the pending decrements of the
next k-1 entries.  ``operator_windows`` is the one place that says which
(1 - R_ij) factors a row has.

The triangle-operator helpers expose the same calculus as data: expansion of
the full pair triangle over permutations (one displacement each, read off
the permutation without its inversion set), the 2^k interval-run shortcut,
signed composition sums, and the vanishing predicates used by the property
suite.  A term set is evaluated through its merged displacements: terms
with the same net displacement are summed into one signed coefficient, once
per term set, and each displacement then costs one product of factorials
and one exact integer division per vector.  Both vanishing predicates, on
truncated vectors and on long first columns, evaluate the full triangle by
its Jacobi-Trudi determinant N! det[1/(v_i + j - i)!], with rows scaled to
integers and eliminated by Bareiss in O(t^3); the t!-term inversion
expansion stays as its oracle, which the property suite compares it against.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, starmap
from math import comb, factorial
from operator import add, gt

from coregrowth.partitions import (
    Parts,
    bounded_to_core,
    check_k_bounded,
    conjugate,
    hook_lengths,
    multiplicities,
)
from coregrowth.posets import cores_of_level, contains, skew_components
from coregrowth.reporting import InvariantError

Pair = tuple[int, int]


def hook_dim(parts: Parts) -> int:
    """Standard Young tableau count via the hook length formula."""
    n = sum(parts)
    d = factorial(n)
    for row in hook_lengths(parts):
        for h in row:
            d //= h
    return d


def raising_apply(pairs, vec) -> tuple[int, ...]:
    """Apply a set of raising moves: +1 at i, -1 at j per pair (1-based)."""
    out = list(vec)
    for i, j in pairs:
        out[i - 1] += 1
        out[j - 1] -= 1
    return tuple(out)


def operator_windows(parts: Parts, k: int) -> list[range]:
    """Column window of the (1 - R_ij) factors of each row (1-based j)."""
    return [range(i + 2, k - parts[i] + i + 2) for i in range(len(parts))]


def _dim_by_convolution(parts: Parts, k: int) -> int:
    """Row-by-row expansion; one entry is finalized per row.

    State: pending decrements for the next k-1 positions.  The partial
    multinomial telescopes through binomials, with the slots already used
    recoverable as (prefix sum of parts) + (pending decrements).
    """
    ell = len(parts)
    n = sum(parts)
    width = max(k - 1, 1)
    states: dict[tuple[int, ...], int] = {(0,) * width: 1}
    prefix = 0
    for i, (lam, full) in enumerate(zip(parts, operator_windows(parts, k)), start=1):
        window = [j for j in full if j <= ell]
        subs = []
        for size in range(len(window) + 1):
            subs.extend(combinations(window, size))
        nxt: dict[tuple[int, ...], int] = {}
        for state, w in states.items():
            pending = sum(state)
            used = prefix + pending
            for sub in subs:
                v = lam - state[0] + len(sub)
                if v < 0:
                    continue
                coeff = comb(n - used, v)
                if coeff == 0:
                    continue
                w2 = w * coeff if len(sub) % 2 == 0 else -w * coeff
                new = list(state[1:]) + [0]
                for j in sub:
                    new[j - i - 1] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + w2
        states = {s: w for s, w in nxt.items() if w}
        prefix += lam
    return sum(w for s, w in states.items() if not any(s))


@cache
def strong_dim_raising(parts: Parts, k: int) -> int:
    """Dimension via the raising-operator expansion."""
    return _dim_by_convolution(check_k_bounded(parts, k), k)


# --- tableau engine: DP over cores ---------------------------------------

class _DimTable:
    """Per-k memo of dimensions over cores, filled on demand.

    ``fill`` computes one core from its strong covers, descending only into
    covers not yet in ``by_core``, and stores the sum under the core and its
    transpose, so each transposed pair is scanned once and a lookup fills
    the strong-order ideal below its core, that ideal's transpose, and
    nothing else.  ``extend`` fills every core of the levels up to
    ``level`` with the same ``fill``.
    """

    def __init__(self, k: int):
        self.k = k
        self.by_core: dict[Parts, int] = {(): 1}
        self._index: dict[int, list[tuple[int, list[int], list[Parts]]]] = {}

    def _level_index(self, n: int) -> list[tuple[int, list[int], list[Parts]]]:
        """The cores of level n grouped by length (rising), each group by first part.

        A core inside kappa is no longer than kappa and has first part at
        most kappa[0]; ``contains`` stays the exact test.
        """
        index = self._index.get(n)
        if index is None:
            by_length: dict[int, list[Parts]] = {}
            for tau in sorted(cores_of_level(self.k, n), key=_first_part):
                by_length.setdefault(len(tau), []).append(tau)
            index = self._index[n] = [
                (length, [_first_part(tau) for tau in group], group)
                for length, group in sorted(by_length.items())
            ]
        return index

    def fill(self, kappa: Parts, n: int) -> int:
        """d(kappa) = d(kappa^T) for the core kappa of level n >= 1, memoised with its ideal.

        Each open scan is a generator on an explicit stack, one per level
        below kappa, so the depth of Python's stack does not grow with n.
        """
        stack = [self._scan(kappa, n)]
        while stack:
            tau = next(stack[-1], None)
            if tau is None:
                stack.pop()
            else:
                stack.append(self._scan(tau, n - len(stack)))
        return self.by_core[kappa]

    def _scan(self, kappa: Parts, n: int):
        """Sum d over the strong covers of kappa, then store it under kappa and kappa^T.

        Yields each cover not yet in ``by_core`` and resumes once ``fill``
        has stored it, so every candidate is tested once.
        """
        dims = self.by_core
        top = _first_part(kappa)
        total = 0
        for length, firsts, group in self._level_index(n - 1):
            if length > len(kappa):
                break
            for tau in group[: bisect_right(firsts, top)]:
                if contains(kappa, tau):
                    d = dims.get(tau)
                    if d is None:
                        yield tau
                        d = dims[tau]
                    total += skew_components(kappa, tau) * d
        dims[kappa] = dims[conjugate(kappa)] = total

    def extend(self, level: int) -> None:
        dims = self.by_core
        for n in range(1, level + 1):
            for kappa in cores_of_level(self.k, n):
                if kappa not in dims:
                    self.fill(kappa, n)


def _first_part(parts: Parts) -> int:
    return parts[0] if parts else 0


_TABLES: dict[int, _DimTable] = {}


def dimension_table(k: int, max_size: int, core: Parts | None = None) -> dict[Parts, int]:
    """Dimension of every (k+1)-core of bounded size up to ``max_size``.

    Given ``core``, a core of bounded size ``max_size``, the table holds
    instead at least ``core`` and every core below it in the strong order.
    """
    table = _TABLES.get(k)
    if table is None:
        table = _TABLES[k] = _DimTable(k)
    if core is None:
        table.extend(max_size)
    elif core not in table.by_core:
        table.fill(core, max_size)
    return table.by_core


def strong_dim_tableaux(parts: Parts, k: int) -> int:
    """Dimension by the marked strong-chain dynamic program."""
    parts = check_k_bounded(parts, k)
    core = bounded_to_core(parts, k)
    return dimension_table(k, sum(parts), core)[core]


# --- triangle operator calculus ------------------------------------------

def inversion_displacements(t: int):
    """The inversion expansion's merged displacements, read off the permutations.

    Yields what ``term_displacements`` yields for the full triangle's t!
    signed inversion sets, in the same order, without building the sets.
    The inversions (i, j), i < j with j placed before i, of a permutation
    raise entry v by #{w > v placed before v} and lower it by
    #{w < v placed after v}: by p - (v - 1) in all, when p entries precede
    v.  So distinct permutations never merge.  The sign is (-1)^inv.  As in
    ``term_displacements`` a displacement is as long as the largest index an
    inversion reaches: t, or 0 at t = 1.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if t == 1:
        yield (), 1
        return
    pos = [0] * t
    for perm in permutations(range(t)):
        for p, v in enumerate(perm):
            pos[v] = p
        inv = sum(starmap(gt, combinations(perm, 2)))
        yield tuple(p - v for v, p in enumerate(pos)), -1 if inv % 2 else 1


def triangle_expand_naive(t: int) -> list[tuple[frozenset[Pair], int]]:
    """All 2^binom(t,2) signed subsets of the pair triangle (test oracle)."""
    pairs = [(i, j) for i in range(1, t + 1) for j in range(i + 1, t + 1)]
    out = []
    for size in range(len(pairs) + 1):
        for sub in combinations(pairs, size):
            out.append((frozenset(sub), -1 if size % 2 else 1))
    return out


def interval_system(u: frozenset[int]) -> frozenset[Pair]:
    """Pairs of the interval product attached to a subset of starts.

    Greedy from the left: an interval opens at the least unused element of u
    and closes at the first index not in u; the product for interval [a, b]
    is R_{a,a+1} ... R_{a,b}.
    """
    pairs = []
    floor = 0
    for a in sorted(u):
        if a <= floor:
            continue
        b = a + 1
        while b in u:
            b += 1
        pairs.extend((a, j) for j in range(a + 1, b + 1))
        floor = b
    return frozenset(pairs)


def triangle_expand_intervals(k: int, universe: int | None = None) -> list[tuple[frozenset[Pair], int]]:
    """Interval-run expansion: one signed term per subset of the universe.

    ``universe`` defaults to k-1, matching the triangle on k-1 unit parts;
    passing k keeps the 2^k degenerate terms whose last interval reaches
    index k+1 (they vanish on zero-padded vectors).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if universe is None:
        universe = k - 1
    ground = list(range(1, universe + 1))
    out = []
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            out.append((interval_system(frozenset(sub)), -1 if size % 2 else 1))
    return out


def term_displacements(terms):
    """Yield each distinct net displacement of ``terms`` once, with its summed sign.

    A term's net displacement moves entry p+1 of a vector by entry p.  Terms
    with the same displacement evaluate alike on every vector, so they are
    merged, and a displacement whose signs cancel is dropped.  Every
    displacement is as long as the largest index any term reaches, so
    ``terms`` is read twice.  A caller that evaluates one term set on many
    vectors keeps the displacements in a tuple.
    """
    top = max((j for pairs, _sign in terms for _i, j in pairs), default=0)
    merged: dict[tuple[int, ...], int] = {}
    for pairs, sign in terms:
        delta = [0] * top
        for i, j in pairs:
            delta[i - 1] += 1
            delta[j - 1] -= 1
        key = tuple(delta)
        merged[key] = merged.get(key, 0) + sign
    for delta, sign in merged.items():
        if sign:
            yield delta, sign


def evaluate_displacements(displacements, vec) -> int:
    """Signed sum of h-coefficients of ``vec`` moved by each displacement.

    The vector is zero-padded to the displacements' length.  A displacement
    keeps the sum N of the vector, so each h-coefficient is N! over the
    factorials of its entries: N! and the factorials of the entries past the
    displacement are divided out once, and each term costs one product of
    factorials and one exact division.  A term with a negative entry is zero.
    """
    base = tuple(vec)
    n = sum(base)
    if n < 0:
        return 0
    total = 0
    width = None
    for delta, sign in displacements:
        if len(delta) != width:
            width = len(delta)
            head = base[:width] + (0,) * (width - len(base))
            tail = base[width:]
            # A moved head sums to ``room``, so a term with an entry outside
            # [0, room] has a negative one; a negative ``room`` or tail
            # entry zeroes every term.
            room = n - sum(tail)
            if min(tail, default=0) < 0 or room < 0:
                facts = None
            else:
                facts = [factorial(m) for m in range(room + 1)]
                top = factorial(n)
                for v in tail:
                    top //= factorial(v)
        if facts is None:
            continue
        denom = 1
        for m in map(add, head, delta):
            if not 0 <= m <= room:
                break
            denom *= facts[m]
        else:
            total += sign * (top // denom)
    return total


def compositions(m: int):
    """All 2^(m-1) compositions of m into positive parts."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            yield (first,) + rest


def composition_sum(m: int) -> Fraction:
    """Signed sum over compositions of 1/(c_1! ... c_t!); equals 1/m!.

    Summed as the integers m!/(c_1! ... c_t!) over the one denominator m!.
    """
    if m < 1:
        raise ValueError("m must be positive")
    top = factorial(m)
    total = 0
    for c in compositions(m):
        term = top
        for part in c:
            term //= factorial(part)
        total += term if (m - len(c)) % 2 == 0 else -term
    return Fraction(total, top)


def triangle_determinant(vec) -> Fraction:
    """N! det[1/(v_i + j - i)!] over the t entries of ``vec``, N = sum(vec).

    Jacobi-Trudi (Macdonald, Symmetric Functions, I.3): the full triangle
    applied to h_vec is det[h_{v_i + j - i}], and the x_1...x_N coefficient
    of a product of h's is N! over their factorials, with 1/m! = 0 for
    m < 0.  Row i is scaled by the factorial of its largest index
    v_i - i + t - 1, which makes every entry an integer; a row whose largest
    index is negative is zero.  The integer determinant is taken by Bareiss
    elimination (Math. Comp. 22, 1968) with row swaps, O(t^3), and divided
    by the scales at the end.
    """
    vec = tuple(vec)
    if not vec:
        raise ValueError("vector must be non-empty")
    total = sum(vec)
    if total < 0:
        # every product in the determinant then has a negative index
        return Fraction(0)
    t = len(vec)
    rows = []
    scale = 1
    for i, v in enumerate(vec):
        top = v - i + t - 1
        if top < 0:
            return Fraction(0)
        f = factorial(top)
        scale *= f
        rows.append([f // factorial(m) if m >= 0 else 0 for m in range(v - i, top + 1)])
    sign = 1
    prev = 1
    for col in range(t - 1):
        piv = next((r for r in range(col, t) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col]
        p = pivot[col]
        for r in range(col + 1, t):
            row = rows[r]
            a = row[col]
            rows[r] = [0] * (col + 1) + [
                (x * p - a * y) // prev for x, y in zip(row[col + 1 :], pivot[col + 1 :])
            ]
        prev = p
    return Fraction(sign * factorial(total) * rows[-1][-1], scale)


def triangle_vanishes(vec, t: int | None = None) -> bool:
    """Whether the triangle evaluation of a non-negative vector is zero.

    The evaluation is the full triangle over all entries of ``vec``, by its
    Jacobi-Trudi determinant, which must be an integer.  The stated
    vanishing regimes: the truncation is (0, ..., 0, m) with 1 <= m <= t,
    or it is non-zero with i-th entry at most i-1 throughout.
    """
    vec = tuple(vec)
    if t is not None and len(vec) != t + 1:
        raise ValueError(f"expected {t + 1} entries, got {len(vec)}")
    if any(v < 0 for v in vec):
        raise ValueError("entries must be non-negative")
    value = triangle_determinant(vec)
    if value.denominator != 1:
        raise InvariantError(f"triangle determinant of {vec} is not an integer: {value}")
    return value == 0


def long_column_vanishes(parts: Parts, k: int) -> bool:
    """Vanishing of triangle-after-moves terms for a long first column.

    Preconditions: l_1(parts) is k-1 or k.  For every subset X of the
    operator windows of the rows above the column of ones that moves a box
    out of some position past those rows, the composite evaluation (apply X,
    then the triangle over the unit block) must be zero.  The triangle fixes
    the first s entries, so that is a positive multinomial times the unit
    block's ``triangle_determinant``, or zero if a fixed entry is negative.
    """
    parts = check_k_bounded(parts, k)
    t = multiplicities(parts, k)[0]
    if t not in (k - 1, k):
        raise ValueError("first-column multiplicity must be k-1 or k")
    s = len(parts) - t
    if any(p < 2 for p in parts[:s]):
        raise ValueError("rows above the unit column must have at least two boxes")
    windows = operator_windows(parts[:s], k)
    box = [(i, j) for i, window in enumerate(windows, start=1) for j in window]
    if len(box) > 20:
        raise ValueError("operator box too large for exhaustive expansion")
    for size in range(1, len(box) + 1):
        for x in combinations(box, size):
            if not any(j >= s + 1 for _i, j in x):
                continue
            moved = raising_apply(x, parts)
            if min(moved[:s]) >= 0 and triangle_determinant(moved[s:]) != 0:
                return False
    return True
