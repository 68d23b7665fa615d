"""Test oracles: direct restatements that the package's faster code is compared against."""

from fractions import Fraction
from itertools import permutations
from math import factorial

from coregrowth.dimensions import compositions
from coregrowth.partitions import Parts, parts_from_multiplicities


def conjugate(parts: Parts) -> Parts:
    """Transpose of the Young diagram, by counting the cells of each column."""
    if not parts:
        return ()
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def is_core(parts: Parts, r: int) -> bool:
    """True iff no cell has hook length exactly r."""
    if r < 2:
        raise ValueError("core parameter must be at least 2")
    conj = conjugate(parts)
    for i, p in enumerate(parts):
        for j in range(p):
            if (p - j) + (conj[j] - i) - 1 == r:
                return False
    return True


def rectangle(i: int, k: int) -> Parts:
    """The k-rectangle with parts i repeated k-i+1 times."""
    if not 1 <= i <= k:
        raise ValueError(f"rectangle type {i} out of range for k={k}")
    return (i,) * (k - i + 1)


def maximal_state(k):
    """The largest reduced state, with l_i = k-i throughout."""
    return parts_from_multiplicities(tuple(k - i for i in range(1, k + 1)))


def h_coefficient(vec) -> int:
    """Multinomial coefficient of x_1...x_n in h_vec; zero off the cone."""
    total = 0
    for v in vec:
        if v < 0:
            return 0
        total += v
    out = factorial(total)
    for v in vec:
        out //= factorial(v)
    return out


def composition_sum(m: int) -> Fraction:
    """Signed sum over compositions of 1/(c_1! ... c_t!), term by term in Fractions."""
    total = Fraction(0)
    for c in compositions(m):
        term = Fraction(1)
        for part in c:
            term /= factorial(part)
        total += term if (m - len(c)) % 2 == 0 else -term
    return total


def triangle_determinant(vec) -> Fraction:
    """N! det[1/(v_i + j - i)!] by Fraction elimination, N = sum(vec) >= 0."""
    vec = tuple(vec)
    total = sum(vec)
    if total < 0:
        return Fraction(0)
    t = len(vec)
    rows = [
        [Fraction(1, factorial(m)) if m >= 0 else Fraction(0) for m in range(v - i, v - i + t)]
        for i, v in enumerate(vec)
    ]
    det = Fraction(factorial(total))
    for col in range(t):
        piv = next((r for r in range(col, t) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pivot = rows[col]
        det *= pivot[col]
        for r in range(col + 1, t):
            f = rows[r][col] / pivot[col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], pivot)]
    return det


def inversion_set(perm) -> frozenset[tuple[int, int]]:
    """Inversions (i, j), i < j, of a permutation in one-line notation."""
    pos = {v: p for p, v in enumerate(perm)}
    n = len(perm)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if pos[j] < pos[i]
    )


def triangle_expand_inversions(t: int) -> tuple[tuple[frozenset[tuple[int, int]], int], ...]:
    """The full triangle over t entries as t! signed inversion sets."""
    if t < 1:
        raise ValueError("t must be positive")
    terms = []
    for perm in permutations(range(1, t + 1)):
        inv = inversion_set(perm)
        terms.append((inv, -1 if len(inv) % 2 else 1))
    return tuple(terms)
