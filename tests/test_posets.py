import random
from dataclasses import dataclass
from functools import cache

import pytest

from coregrowth import partitions, posets
from coregrowth.partitions import (
    EMPTY,
    bounded_to_core,
    conjugate,
    core_to_bounded,
    stack_row,
)
from coregrowth.posets import (
    addable_corners,
    cores_of_level,
    contains,
    enumerate_bounded,
    grown_column,
    removable_corners,
    skew_components,
    weak_covers_bounded,
    weak_dim,
    weak_predecessors_bounded,
)
from coregrowth.dimensions import hook_dim

from oracles import is_core


def weak_covers_core(parts, k):
    """Weak covers of a (k+1)-core, as (residue, core) pairs.

    For each content residue r mod k+1 with at least one addable corner and
    no removable corner of the same residue, add every addable corner of
    residue r simultaneously.
    """
    r = k + 1
    blocked = {(col - row) % r for row, col in removable_corners(parts)}
    by_residue = {}
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


@dataclass(frozen=True)
class StrongCover:
    """A strong cover ``from_core`` => ``to_core`` of (k+1)-cores.

    ``components`` counts the connected components of the skew shape, i.e.
    the number of choices of a marked component for this step.
    """

    from_core: tuple
    to_core: tuple
    components: int


@cache
def strong_covers(parts, k):
    """All strong covers above a (k+1)-core, by scanning the next level.

    Enumerates every core of the next bounded size and keeps those
    containing ``parts``: the rule ``dimensions`` indexes, scanned in full.
    """
    if parts and not is_core(parts, k + 1):
        raise ValueError(f"{parts!r} is not a {k + 1}-core")
    m = sum(core_to_bounded(parts, k))
    out = []
    for kappa in cores_of_level(k, m + 1):
        if contains(kappa, parts):
            out.append(StrongCover(parts, kappa, skew_components(kappa, parts)))
    return tuple(out)


def bfs_components(outer, inner):
    """Flood-fill oracle for connected components of a skew shape."""
    cells = set()
    for i in range(len(outer)):
        lo = inner[i] if i < len(inner) else 0
        cells.update((i, j) for j in range(lo, outer[i]))
    comps = 0
    while cells:
        comps += 1
        stack = [cells.pop()]
        while stack:
            i, j = stack.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in cells:
                    cells.remove(nb)
                    stack.append(nb)
    return comps


def test_enumerate_bounded():
    assert enumerate_bounded(3, 4) == ((3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert enumerate_bounded(1, 5) == ((1, 1, 1, 1, 1),)
    assert enumerate_bounded(4, 0) == (EMPTY,)


def test_contains_is_cell_set_inclusion():
    shapes = [lam for n in range(9) for lam in enumerate_bounded(max(n, 1), n)]
    assert len(shapes) == 67
    cells = {lam: {(i, j) for i, p in enumerate(lam) for j in range(p)} for lam in shapes}
    for outer in shapes:
        for inner in shapes:
            assert contains(outer, inner) == (cells[inner] <= cells[outer]), (outer, inner)


@pytest.mark.parametrize("k", [3, 6])
def test_a_fresh_level_stacks_one_row_per_core(monkeypatch, k):
    steps = 0

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return stack_row(*args)

    def forbidden(*args):
        raise AssertionError(f"a level inflated {args!r}")

    monkeypatch.setattr(posets, "_LEVELS", {})
    monkeypatch.setattr(posets, "stack_row", counting_step)
    monkeypatch.setattr(partitions, "bounded_to_core", forbidden)
    monkeypatch.setattr(posets, "bounded_to_core", forbidden, raising=False)
    top = 2 * k + 4
    cores_of_level(k, top)
    assert steps == sum(len(cores_of_level(k, n)) for n in range(1, top + 1))
    before = steps
    assert len(cores_of_level(k, top + 1)) == steps - before
    before = steps
    cores_of_level(k, top)
    assert steps == before


@pytest.mark.parametrize("k", [3, 6])
def test_a_level_of_cores_builds_no_bounded_partition(monkeypatch, k):
    """The cores come from the cores below and ``starts`` alone, up to the chain's top level.

    The bounded levels, built after the cores or before them, are the same
    and still inflate to the cores element for element.
    """
    top = max(map(sum, partitions.enumerate_reduced_states(k))) + 1

    def forbidden(self, n):
        raise AssertionError(f"the cores built the bounded partitions of level {n}")

    monkeypatch.setattr(posets, "_LEVELS", {})
    with monkeypatch.context() as patch:
        patch.setattr(posets._Levels, "bounded_up_to", forbidden)
        cores_of_level(k, top)
        cores = [cores_of_level(k, n) for n in range(top + 1)]
    after = [enumerate_bounded(k, n) for n in range(top + 1)]
    assert cores == [tuple(bounded_to_core(b, k) for b in level) for level in after]
    monkeypatch.setattr(posets, "_LEVELS", {})
    assert [enumerate_bounded(k, n) for n in range(top + 1)] == after
    assert [cores_of_level(k, n) for n in range(top + 1)] == cores


def test_weak_covers_core_examples():
    assert {c for _r, c in weak_covers_core((2, 1), 3)} == {(3, 1, 1), (2, 2)}
    assert weak_covers_core(EMPTY, 3) == [(0, (1,))]


def test_weak_covers_bounded_examples():
    assert set(weak_covers_bounded((2, 1), 3)) == {(2, 1, 1), (2, 2)}
    assert set(weak_covers_bounded((1,), 3)) == {(2,), (1, 1)}
    assert weak_covers_bounded(EMPTY, 3) == [(1,)]


def test_weak_cover_cross_engine_agreement():
    for k in range(2, 6):
        top = 20 if k <= 3 else 12
        for n in range(0, top):
            for b in enumerate_bounded(k, n):
                via_cores = sorted(
                    core_to_bounded(c, k) for _r, c in weak_covers_core(bounded_to_core(b, k), k)
                )
                assert sorted(weak_covers_bounded(b, k)) == via_cores


def test_weak_covers_count_bound():
    for k in (2, 3, 4):
        for n in range(1, 12):
            for b in enumerate_bounded(k, n):
                covers = weak_covers_bounded(b, k)
                assert 1 <= len(covers) <= k


def test_weak_cover_increments_bounded_size_on_cores():
    for k in (2, 3, 4):
        for n in range(0, 10):
            for c in cores_of_level(k, n):
                for _r, cov in weak_covers_core(c, k):
                    assert sum(core_to_bounded(cov, k)) == n + 1


def test_every_weak_cover_is_strong():
    for k in (2, 3, 4):
        for n in range(0, 12):
            for b in enumerate_bounded(k, n):
                c = bounded_to_core(b, k)
                strong = {s.to_core for s in strong_covers(c, k)}
                weak = {cov for _r, cov in weak_covers_core(c, k)}
                assert weak <= strong
                assert len(strong) >= len(weak)


def test_strong_covers_examples():
    covs = strong_covers(EMPTY, 3)
    assert len(covs) == 1 and covs[0].to_core == (1,) and covs[0].components == 1
    # multiplicities feeding the dimension anchor d((2,1,1)) = 6 at k = 3
    into = {
        s.from_core: s.components
        for s in strong_covers((3,), 3) + strong_covers((2, 1), 3) + strong_covers((1, 1, 1), 3)
        if s.to_core == (3, 1, 1)
    }
    assert into == {(3,): 1, (2, 1): 2, (1, 1, 1): 1}


def test_strong_cover_conjugation_stability():
    for k in (2, 3):
        for n in range(0, 9):
            for c in cores_of_level(k, n):
                mapped = {
                    (conjugate(s.to_core), s.components) for s in strong_covers(c, k)
                }
                direct = {
                    (s.to_core, s.components) for s in strong_covers(conjugate(c), k)
                }
                assert mapped == direct


def test_skew_components_against_flood_fill():
    rng = random.Random(7)
    for _ in range(300):
        outer = tuple(
            sorted((rng.randint(1, 9) for _ in range(rng.randint(1, 7))), reverse=True)
        )
        inner = tuple(
            sorted((rng.randint(0, outer[i]) for i in range(len(outer))), reverse=True)
        )
        inner = tuple(x for x in inner if x)
        if not contains(outer, inner):
            continue
        assert skew_components(outer, inner) == bfs_components(outer, inner)


def test_weak_dim_values():
    assert weak_dim(EMPTY, 3) == 1
    assert weak_dim((1,), 3) == 1
    # with k at least the size, weak paths coincide with standard tableaux
    for n in range(0, 8):
        for lam in enumerate_bounded(7, n):
            assert weak_dim(lam, 7) == hook_dim(lam)


def test_weak_dim_at_most_hook_dim():
    for k in (2, 3, 4):
        for n in range(0, 10):
            for lam in enumerate_bounded(k, n):
                assert weak_dim(lam, k) <= hook_dim(lam)


def test_weak_predecessors_invert_covers():
    for k in (2, 3, 4):
        for n in range(0, 10):
            for lam in enumerate_bounded(k, n):
                for cov in weak_covers_bounded(lam, k):
                    assert lam in weak_predecessors_bounded(cov, k)


def test_grown_column():
    assert grown_column(EMPTY, (1,)) == 1
    assert grown_column((3, 1), (3, 1, 1)) == 1  # a new row
    assert grown_column((3, 1), (3, 2)) == 2  # growth inside a row
    assert grown_column((2, 2), (3, 2)) == 3
    with pytest.raises(ValueError):
        grown_column((2, 1), (2, 1))
