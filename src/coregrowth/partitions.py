"""Partition primitives and the core/bounded dictionary.

Partitions are plain tuples of weakly decreasing positive ints, French
convention: row 1 is the bottom (longest) row, so the cell ``(i, j)``
(1-based) of ``parts`` has arm ``parts[i-1] - j`` and its leg counts the
shorter rows above.

An r-core is a partition with no hook of length r.  For r = k+1 the maps
``core_to_bounded`` / ``bounded_to_core`` translate between (k+1)-cores and
partitions with parts at most k.  The push-right rule behind
``bounded_to_core`` is one row step, ``stack_row``: from the core and the
first part of the rows above the bottom one, it adds the bottom row with
O(1) arithmetic and one tuple copy, so ``posets`` builds a whole level of
cores with one step per core on cores already built.  ``reduce_rectangles``
projects a k-bounded partition onto the finite state space of k!
partitions whose multiplicity vector satisfies l_i <= k-i.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial
from operator import lt

Parts = tuple[int, ...]

EMPTY: Parts = ()


def check_partition(parts) -> Parts:
    """Coerce to a tuple and validate weakly decreasing positive parts."""
    t = tuple(map(int, parts))
    # Weakly decreasing parts are positive when the last one is.
    if any(map(lt, t, t[1:])) or (t and t[-1] < 1):
        raise ValueError(f"not a partition: {parts!r}")
    return t


def is_k_bounded(parts: Parts, k: int) -> bool:
    return not parts or parts[0] <= k


def check_k_bounded(parts, k: int) -> Parts:
    t = check_partition(parts)
    if not is_k_bounded(t, k):
        raise ValueError(f"{t!r} is not {k}-bounded")
    return t


def conjugate(parts: Parts) -> Parts:
    """Transpose of the Young diagram, in O(rows + columns).

    Read from the shortest row up: the parts[i-1] - parts[i] columns that
    end in row i have length i.
    """
    cols: list[int] = []
    prev = 0
    length = len(parts)
    for p in reversed(parts):
        if p != prev:
            cols += [length] * (p - prev)
            prev = p
        length -= 1
    return tuple(cols)


def hook_lengths(parts: Parts) -> list[list[int]]:
    """Hook length of every cell, row by row (row 1 first)."""
    conj = conjugate(parts)
    return [
        [(p - j - 1) + (conj[j] - i - 1) + 1 for j in range(p)]
        for i, p in enumerate(parts)
    ]


def core_to_bounded(parts: Parts, k: int) -> Parts:
    """Row-wise count of cells with hook length below k+1.

    For a (k+1)-core this is the bijection onto k-bounded partitions
    (delete every cell of hook length > k+1, then left-justify).  Hooks
    strictly decrease along a row (the arm falls by one, the leg does not
    rise), so the counted cells are a suffix of the row, and a cell of arm
    k or more is never counted: each row bisects its last k cells for the
    first hook of at most k, O(log k) probes instead of one per cell.
    """
    conj = conjugate(parts)
    out = []
    for i, p in enumerate(parts):
        # The hook of cell j (0-based) of row i is p - j + conj[j] - i - 1.
        lo, hi = max(p - k, 0), p
        while lo < hi:
            mid = (lo + hi) // 2
            if p - mid + conj[mid] - i - 1 <= k:
                hi = mid
            else:
                lo = mid + 1
        out.append(p - lo)
    return tuple(out)


def stack_row(first: int, rest_first: int, rest_core: Parts, k: int) -> Parts:
    """The (k+1)-core of ``first`` on top of a tail with first part ``rest_first`` (0 if empty).

    One step of the push-right rule.  The tail's rows are final in its core
    ``rest_core``, and the shift they carried down, ``rest_core[0] -
    rest_first``, moves the new bottom row too.  The row then moves right by
    the least amount that leaves each of its ``first`` original cells with
    hook length at most k.  The cell c-th from the right has arm c - 1, so
    it needs leg at most k - c: a column past ``rest_core[k - c]``.  That
    bound rises with c, so the leftmost original cell (c = ``first``)
    decides.  Needs 1 <= first <= k and a tail with parts at most
    ``first``; the caller checks.
    """
    row = first + (rest_core[0] - rest_first if rest_core else 0)
    if k - first < len(rest_core):
        row = max(row, rest_core[k - first] + first)
    return (row,) + rest_core


@cache
def bounded_to_core(parts: Parts, k: int) -> Parts:
    """Inverse of ``core_to_bounded``: inflate a k-bounded partition to its (k+1)-core.

    A fold of ``stack_row`` from the top (shortest) row down: each row,
    together with all rows below it, is pushed right by the least shift
    that leaves every original cell of the row with hook length at most k.
    The legs only involve the rows above, which are already final, so each
    row costs one step.
    """
    parts = check_k_bounded(parts, k)
    core = EMPTY
    for first, rest_first in zip(reversed(parts), (0, *reversed(parts))):
        core = stack_row(first, rest_first, core, k)
    return core


@cache
def k_conjugate(parts: Parts, k: int) -> Parts:
    """Conjugation transported through the (k+1)-core picture; an involution."""
    return core_to_bounded(conjugate(bounded_to_core(parts, k)), k)


def multiplicities(parts: Parts, k: int) -> tuple[int, ...]:
    """Vector (l_1, ..., l_k): number of parts of each size."""
    l = [0] * k
    for p in parts:
        l[p - 1] += 1
    return tuple(l)


def parts_from_multiplicities(l) -> Parts:
    out = []
    for size in range(len(l), 0, -1):
        out.extend([size] * l[size - 1])
    return tuple(out)


def rectangle_area(i: int, k: int) -> int:
    return i * (k - i + 1)


def reduce_rectangles(parts: Parts, k: int) -> tuple[Parts, tuple[int, ...]]:
    """Delete full k-rectangles from the part multiset until l_i <= k-i.

    Returns the reduced partition and the ledger (c_1, ..., c_k) of deleted
    rectangles per type.  Deletion acts on multiplicities, so order is moot.
    """
    l = list(multiplicities(check_k_bounded(parts, k), k))
    ledger = [0] * k
    for i in range(1, k + 1):
        block = k - i + 1
        ledger[i - 1] = l[i - 1] // block
        l[i - 1] %= block
    return parts_from_multiplicities(l), tuple(ledger)


def is_reduced(parts: Parts, k: int) -> bool:
    l = multiplicities(parts, k)
    return all(l[i - 1] <= k - i for i in range(1, k + 1))


def check_reduced(parts, k: int) -> Parts:
    t = check_k_bounded(parts, k)
    if not is_reduced(t, k):
        raise ValueError(f"{t!r} has a full k-rectangle for k={k}")
    return t


def complement(parts: Parts, k: int) -> Parts:
    """The involution l_i -> k-i-l_i on the reduced state space."""
    l = multiplicities(check_reduced(parts, k), k)
    return parts_from_multiplicities(tuple(k - i - l[i - 1] for i in range(1, k + 1)))


def factorial_index(parts: Parts, k: int) -> int:
    """Mixed-radix rank: sum of l_i * (k-i)!, a bijection onto 0..k!-1."""
    l = multiplicities(check_reduced(parts, k), k)
    return sum(l[i - 1] * factorial(k - i) for i in range(1, k + 1))


@cache
def enumerate_reduced_states(k: int) -> tuple[Parts, ...]:
    """All k! reduced states, ordered by factorial index (l_1 varies slowest)."""
    if k < 1:
        raise ValueError("k must be positive")
    digits = (range(k - i + 1) for i in range(1, k + 1))  # l_i <= k - i
    return tuple(map(parts_from_multiplicities, product(*digits)))
