"""Weak and strong cover relations on cores and bounded partitions.

On k-bounded partitions the weak order is box addition that is monotone for
k-conjugation.  The strong order is plain containment of (k+1)-cores with the
bounded size rising by one (``dimensions`` walks it); each strong cover
carries the number of connected components of its skew shape, which is the
number of admissible markings of that step.
"""

from __future__ import annotations

from functools import cache

from coregrowth.partitions import (
    EMPTY,
    Parts,
    bounded_to_core,
    check_k_bounded,
    k_conjugate,
)


def contains(outer: Parts, inner: Parts) -> bool:
    """Cell-wise containment of Young diagrams."""
    if len(inner) > len(outer):
        return False
    for small, big in zip(inner, outer):
        if small > big:
            return False
    return True


@cache
def enumerate_bounded(k: int, n: int) -> tuple[Parts, ...]:
    """All partitions of n with parts <= k, largest part first."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return (EMPTY,)
    out: list[Parts] = []
    for first in range(min(k, n), 0, -1):
        for rest in enumerate_bounded(first, n - first):
            out.append((first,) + rest)
    return tuple(out)


@cache
def cores_of_level(k: int, n: int) -> tuple[Parts, ...]:
    """The (k+1)-cores whose bounded image has size n."""
    return tuple(bounded_to_core(b, k) for b in enumerate_bounded(k, n))


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
    seen: set[int] = set()
    for row, _col in addable_corners(parts):
        if row <= len(parts):
            new_size = parts[row - 1] + 1
            if new_size > k or new_size in seen:
                continue
            seen.add(new_size)
            mu = parts[: row - 1] + (new_size,) + parts[row:]
        else:
            mu = parts + (1,)
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


@cache
def weak_dim(parts: Parts, k: int) -> int:
    """Number of weak-order paths from the empty partition."""
    parts = check_k_bounded(parts, k)
    if not parts:
        return 1
    return sum(weak_dim(mu, k) for mu in weak_predecessors_bounded(parts, k))


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
