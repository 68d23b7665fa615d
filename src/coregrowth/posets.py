"""Levels of bounded partitions and cores, and the weak and strong orders on them.

``cores_of_level(k, n)`` lists the (k+1)-cores whose bounded partitions
have size n, memoised per k and built one level at a time from the levels
below: a partition is its first part on top of a partition of a lower level,
and its core is one ``partitions.stack_row`` on that partition's core and
first part, so no level inflates a partition or needs one listed.
``enumerate_bounded(k, n)`` reads the partitions of n with parts at most k
off that level with ``core_to_bounded``, so both list a level in one order.

On k-bounded partitions the weak order is box addition that is monotone for
k-conjugation.  The strong order is plain containment of (k+1)-cores with the
bounded size rising by one (``dimensions`` walks it); each strong cover
carries the number of connected components of its skew shape, which is the
number of admissible markings of that step.
"""

from __future__ import annotations

from operator import le

from coregrowth.partitions import (
    EMPTY,
    Parts,
    check_k_bounded,
    core_to_bounded,
    k_conjugate,
    stack_row,
)


def contains(outer: Parts, inner: Parts) -> bool:
    """Cell-wise containment of Young diagrams."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


class _Levels:
    """The (k+1)-cores of the partitions of each size with parts at most k.

    Level n lists its partitions' cores by first part, largest first,
    and ``starts[n][f]`` (f <= min(k, n)) is where those with first part at
    most f begin.  A partition of n with first part f is f on top of a
    partition of n - f with parts at most f: the tail of level n - f from
    ``starts[n - f][min(f, n - f)]``.  So the lengths alone give ``starts``,
    and each core is one ``stack_row`` on a core of that tail and its
    block's first part (0 for level 0's): no core reads a partition.
    """

    def __init__(self, k: int):
        self.k = k
        self.starts: list[list[int]] = [[0]]
        self.cores: list[tuple[Parts, ...]] = [(EMPTY,)]

    def cores_up_to(self, n: int) -> tuple[Parts, ...]:
        k, starts, cores = self.k, self.starts, self.cores
        for m in range(len(cores), n + 1):
            here = [0] * (min(k, m) + 1)
            for f in range(len(here) - 1, 0, -1):
                here[f - 1] = here[f] + len(cores[m - f]) - starts[m - f][min(f, m - f)]
            starts.append(here)
            level: list[Parts] = []
            for f in range(min(k, m), 0, -1):
                below, at = cores[m - f], starts[m - f]
                for g in range(min(f, m - f), -1, -1):
                    end = at[g - 1] if g else len(below)
                    level += [stack_row(f, g, core, k) for core in below[at[g] : end]]
            cores.append(tuple(level))
        return cores[n]


_LEVELS: dict[int, _Levels] = {}


def enumerate_bounded(k: int, n: int) -> tuple[Parts, ...]:
    """All partitions of n with parts <= k, largest part first.

    Read off ``cores_of_level(k, n)`` and not kept: each call deflates the
    level's cores again.
    """
    return tuple(core_to_bounded(core, k) for core in cores_of_level(k, n))


def cores_of_level(k: int, n: int) -> tuple[Parts, ...]:
    """The (k+1)-cores whose bounded image has size n, in the order of ``enumerate_bounded``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if k not in _LEVELS:
        _LEVELS[k] = _Levels(k)
    return _LEVELS[k].cores_up_to(n)


# --- weak order ---------------------------------------------------------

def addable_corners(parts: Parts) -> list[tuple[int, int]]:
    """1-based (row, column) positions where a single box may be added."""
    corners = [(1, parts[0] + 1)] if parts else [(1, 1)]
    for i in range(1, len(parts)):
        if parts[i] < parts[i - 1]:
            corners.append((i + 1, parts[i] + 1))
    if parts:
        corners.append((len(parts) + 1, 1))
    return corners


def removable_corners(parts: Parts) -> list[tuple[int, int]]:
    """1-based (row, column) positions of removable boxes."""
    return [
        (i + 1, parts[i])
        for i in range(len(parts))
        if i + 1 == len(parts) or parts[i] > parts[i + 1]
    ]


def grown_column(before: Parts, after: Parts) -> int:
    """Column of the single box added between two bounded partitions."""
    if len(after) > len(before):
        return 1
    for a, b in zip(before, after):
        if b != a:
            return b
    raise ValueError("partitions are equal")


def weak_covers_bounded(parts: Parts, k: int) -> list[Parts]:
    """All bounded weak covers: one box added, k-conjugates still nested."""
    parts = check_k_bounded(parts, k)
    conj_self = k_conjugate(parts, k)
    covers = []
    # A corner's column is its row's new length; rows differ, so no column repeats.
    for row, col in addable_corners(parts):
        if col > k:
            continue
        mu = parts[: row - 1] + (col,) + parts[row:]
        if contains(k_conjugate(mu, k), conj_self):
            covers.append(mu)
    return covers


def weak_predecessors_bounded(parts: Parts, k: int) -> list[Parts]:
    """Bounded partitions covered by ``parts`` in the weak order."""
    parts = check_k_bounded(parts, k)
    conj_self = k_conjugate(parts, k)
    preds = []
    for row, col in removable_corners(parts):
        mu = parts[: row - 1] + ((col - 1,) if col > 1 else ()) + parts[row:]
        if contains(conj_self, k_conjugate(mu, k)):
            preds.append(mu)
    return preds


_WEAK_DIMS: dict[int, dict[Parts, int]] = {}


def weak_dim(parts: Parts, k: int) -> int:
    """Number of weak-order paths from the empty partition.

    Memoised per k.  The walk down the weak predecessors keeps its own
    stack, so the depth of Python's stack does not grow with the partition.
    """
    parts = check_k_bounded(parts, k)
    memo = _WEAK_DIMS.setdefault(k, {EMPTY: 1})
    preds: dict[Parts, list[Parts]] = {}
    stack = [parts]
    while stack:
        lam = stack[-1]
        if lam in memo:
            stack.pop()
        elif lam in preds:
            # Everything pushed above lam has finished.
            memo[lam] = sum(memo[mu] for mu in preds[lam])
            stack.pop()
        else:
            preds[lam] = weak_predecessors_bounded(lam, k)
            stack += [mu for mu in preds[lam] if mu not in memo]
    return memo[parts]


# --- strong order -------------------------------------------------------

def skew_components(outer: Parts, inner: Parts) -> int:
    """Connected components (4-adjacency) of the skew shape outer/inner.

    Each row of the skew shape is one column interval, so components are
    maximal runs of consecutive non-empty rows with overlapping intervals.
    """
    comps = 0
    prev: tuple[int, int] | None = None
    for i in range(len(outer)):
        lo = inner[i] if i < len(inner) else 0
        hi = outer[i]
        if hi <= lo:
            prev = None
            continue
        if prev is None or max(lo, prev[0]) >= min(hi, prev[1]):
            comps += 1
        prev = (lo, hi)
    return comps
