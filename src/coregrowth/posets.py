"""Weak and strong cover relations on cores and bounded partitions.

The weak order adds, per step, every addable corner of one fixed content
residue mod k+1 to a (k+1)-core; on k-bounded partitions it is box addition
that is monotone for k-conjugation.  The strong order is plain containment of
(k+1)-cores with the bounded size rising by one; each strong cover carries
the number of connected components of its skew shape, which is the number of
admissible markings of that step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from coregrowth.partitions import (
    EMPTY,
    Parts,
    bounded_to_core,
    check_k_bounded,
    core_to_bounded,
    is_core,
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


def weak_covers_core(parts: Parts, k: int) -> list[tuple[int, Parts]]:
    """Weak covers of a (k+1)-core, as (residue, core) pairs.

    For each content residue r mod k+1 with at least one addable corner and
    no removable corner of the same residue, add every addable corner of
    residue r simultaneously.
    """
    r = k + 1
    blocked = {(col - row) % r for row, col in removable_corners(parts)}
    by_residue: dict[int, list[tuple[int, int]]] = {}
    for row, col in addable_corners(parts):
        by_residue.setdefault((col - row) % r, []).append((row, col))
    covers = []
    for res in sorted(by_residue):
        if res in blocked:
            continue
        grown = list(parts)
        for row, _col in by_residue[res]:
            if row > len(grown):
                grown.append(1)
            else:
                grown[row - 1] += 1
        covers.append((res, tuple(grown)))
    return covers


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

@dataclass(frozen=True)
class StrongCover:
    """A strong cover ``from_core`` => ``to_core`` of (k+1)-cores.

    ``components`` counts the connected components of the skew shape, i.e.
    the number of choices of a marked component for this step.
    """

    from_core: Parts
    to_core: Parts
    components: int


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


@cache
def strong_covers(parts: Parts, k: int) -> tuple[StrongCover, ...]:
    """All strong covers above a (k+1)-core.

    Baseline generator: enumerate every core of the next bounded size and
    keep those containing ``parts``.  Exact but linear in the level size.
    """
    if parts and not is_core(parts, k + 1):
        raise ValueError(f"{parts!r} is not a {k + 1}-core")
    m = sum(core_to_bounded(parts, k))
    out = []
    for kappa in cores_of_level(k, m + 1):
        if contains(kappa, parts):
            out.append(StrongCover(parts, kappa, skew_components(kappa, parts)))
    return tuple(out)
