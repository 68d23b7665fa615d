"""Test oracles: direct restatements that the package's faster code is compared against."""

from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import NamedTuple

from coregrowth.dimensions import compositions
from coregrowth.partitions import (
    Parts,
    factorial_index,
    parts_from_multiplicities,
    reduce_rectangles,
)
from coregrowth.posets import grown_column


def conjugate(parts: Parts) -> Parts:
    """Transpose of the Young diagram, by counting the cells of each column."""
    if not parts:
        return ()
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def bounded_partitions(k: int, n: int) -> list[Parts]:
    """The partitions of n with parts at most k, by first part, largest first.

    A plain recursion on the first part f, with the partitions of n - f with
    parts at most f in the same order after it: no core is built.
    """
    if n == 0:
        return [()]
    return [(f,) + rest for f in range(min(k, n), 0, -1) for rest in bounded_partitions(f, n - f)]


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


def core_to_bounded(parts: Parts, k: int) -> Parts:
    """Row-wise count of cells with hook length at most k, one cell at a time."""
    conj = conjugate(parts)
    return tuple(
        sum(1 for j in range(p) if (p - j) + (conj[j] - i) - 1 <= k)
        for i, p in enumerate(parts)
    )


def growth_step_fields(parts: Parts, cover: Parts, k: int) -> tuple[int, Parts, int | None]:
    """(column, target, removed) of the step to ``cover``, by deleting the cover's rectangles.

    ``removed`` is the type whose ledger count rises against that of ``parts``.
    """
    target, ledger = reduce_rectangles(cover, k)
    base = reduce_rectangles(parts, k)[1]
    removed = next((i for i, (b, c) in enumerate(zip(base, ledger), start=1) if c > b), None)
    return grown_column(parts, cover), target, removed


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


def shifted_terms(terms, shift: int) -> list[tuple[frozenset[tuple[int, int]], int]]:
    """``terms`` acting ``shift`` entries further on: every pair index raised by ``shift``.

    The shifted inversion sets are the triangle over entries shift+1 ..
    shift+t: the unit block below s rows whose value ``long_column_vanishes``
    reads off the block's determinant instead.
    """
    return [(frozenset((i + shift, j + shift) for i, j in pairs), sign) for pairs, sign in terms]


class LabelledChain(NamedTuple):
    """The reduced chain together with the bead class of each of the k+1 labels.

    Labelled state a is reduced state ``reduced[a]`` with label i+1 at class
    ``arrangements[a][i]``.  Its moves, in ``mc.moves`` order, are entries
    ``base[a]`` onwards of ``nxt`` (the labelled state after the move) and
    ``other`` (the jumped-over label).  ``canonical[s]`` is the first
    labelled state reached with reduced state s, and ``rotation[a]`` is how
    far the first label's class of a lies past that of its canonical state.
    """

    reduced: list[int]
    arrangements: list[tuple[int, ...]]
    base: list[int]
    nxt: list[int]
    other: list[int]
    canonical: list[int]
    rotation: list[int]


def labelled_chain(mc) -> LabelledChain:
    """Close the labelled chain from (state 0, identity arrangement).

    A move grows ``column``: that label jumps from its class c to
    c - 1 (mod k+1), swapping with the label found there.  An arrangement
    reached with two reduced states raises ValueError.
    """
    r = mc.k + 1
    chain = LabelledChain([0], [tuple(range(r))], [], [], [], [-1] * len(mc.states), [])
    index = {chain.arrangements[0]: 0}
    a = 0
    while a < len(chain.reduced):
        s, label_class = chain.reduced[a], chain.arrangements[a]
        if chain.canonical[s] < 0:
            chain.canonical[s] = a
        chain.rotation.append((label_class[0] - chain.arrangements[chain.canonical[s]][0]) % r)
        chain.base.append(len(chain.nxt))
        for m in mc.moves[s]:
            target = factorial_index(m.target, mc.k)
            c = label_class[m.column - 1]
            sigma = (c - 1) % r
            other = label_class.index(sigma) + 1
            moved = list(label_class)
            moved[m.column - 1], moved[other - 1] = sigma, c
            b = index.setdefault(tuple(moved), len(chain.reduced))
            if b == len(chain.reduced):
                chain.reduced.append(target)
                chain.arrangements.append(tuple(moved))
            elif chain.reduced[b] != target:
                raise ValueError(f"{tuple(moved)} carries states {chain.reduced[b]} and {target}")
            chain.nxt.append(b)
            chain.other.append(other)
        a += 1
    return chain
