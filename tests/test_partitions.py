from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coregrowth.partitions import (
    EMPTY,
    bounded_to_core,
    check_partition,
    complement,
    conjugate,
    core_to_bounded,
    enumerate_reduced_states,
    factorial_index,
    hook_lengths,
    is_reduced,
    k_conjugate,
    multiplicities,
    parts_from_multiplicities,
    reduce_rectangles,
)
from coregrowth.chain import Move, growth_steps
from coregrowth.posets import cores_of_level, enumerate_bounded, weak_covers_bounded

import oracles
from oracles import is_core, maximal_state, rectangle


# Anchor pair: a 4-bounded partition and its 5-core, hooks known by hand.
BIG_BOUNDED = (4, 3, 3, 3, 2, 2, 1)
BIG_CORE = (12, 8, 5, 5, 2, 2, 1)


@st.composite
def partitions(draw, max_n=18, max_part=None):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return EMPTY
    k = max_part or n
    bins = draw(st.lists(st.integers(min_value=1, max_value=k), min_size=1, max_size=n))
    parts = []
    total = 0
    for b in bins:
        if total + b > n:
            break
        parts.append(b)
        total += b
    return tuple(sorted(parts, reverse=True))


def naive_inflate(parts, k):
    """Literal row-by-row push-right procedure (test twin of bounded_to_core)."""
    rows = list(parts)

    def hook_ok(i, orig):
        # original cells of row i are its rightmost `orig` cells
        for c in range(1, orig + 1):
            col = rows[i] - c + 1
            leg = sum(1 for r in range(i + 1, len(rows)) if rows[r] >= col)
            if (c - 1) + leg + 1 > k:
                return False
        return True

    for i in range(len(rows) - 1, -1, -1):
        while not hook_ok(i, parts[i]):
            for r in range(i + 1):
                rows[r] += 1
    return tuple(rows)


def test_conjugate_matches_the_cell_count():
    """Every partition of size at most 12, and every 6-core up to the k=5 chain's level."""
    small = [lam for n in range(13) for lam in enumerate_bounded(max(n, 1), n)]
    assert len(small) == 272
    levels = max(map(sum, enumerate_reduced_states(5))) + 1
    cores = [kappa for n in range(levels + 1) for kappa in cores_of_level(5, n)]
    assert len(cores) == 1346
    for lam in small + cores:
        assert conjugate(lam) == oracles.conjugate(lam), lam


def test_hook_lengths_small():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert hook_lengths(EMPTY) == []


def test_hook_lengths_big_core():
    hooks = hook_lengths(BIG_CORE)
    assert hooks[0] == [18, 16, 13, 12, 11, 8, 7, 6, 4, 3, 2, 1]
    assert all(5 not in row for row in hooks)


def test_is_core_examples():
    assert is_core((7, 3, 1), 5)
    assert not is_core((3, 1), 4)
    assert is_core(EMPTY, 7)
    with pytest.raises(ValueError):
        is_core((2, 1), 1)


def test_core_to_bounded_examples():
    assert core_to_bounded(BIG_CORE, 4) == BIG_BOUNDED
    assert core_to_bounded((7, 3, 1), 4) == (4, 3, 1)
    assert core_to_bounded(EMPTY, 4) == EMPTY


def test_bounded_to_core_examples():
    assert bounded_to_core(BIG_BOUNDED, 4) == BIG_CORE
    assert bounded_to_core((4, 3, 1), 4) == (7, 3, 1)
    for m in range(1, 5):
        assert bounded_to_core((m,), 4) == (m,)
    assert bounded_to_core(EMPTY, 3) == EMPTY
    with pytest.raises(ValueError):
        bounded_to_core((5, 1), 4)


def test_bounded_to_core_matches_naive_procedure():
    for k in range(1, 5):
        for n in range(0, 11):
            for b in enumerate_bounded(k, n):
                assert bounded_to_core(b, k) == naive_inflate(b, k)


@pytest.mark.parametrize("k", range(1, 7))
def test_cores_of_level_inflates_each_level_in_order(k):
    """Element for element up to the chain's top level; the literal procedure on small levels.

    The bounded partitions come from the recursive oracle, which builds no core.
    """
    top = max(map(sum, enumerate_reduced_states(k))) + 1
    for n in range(top + 1):
        level = cores_of_level(k, n)
        bounded = oracles.bounded_partitions(k, n)
        assert level == tuple(bounded_to_core(b, k) for b in bounded)
        if n <= 10:
            assert level == tuple(naive_inflate(b, k) for b in bounded)


def test_round_trips_exhaustive():
    for k in range(1, 7):
        sizes = range(0, 31 if k <= 2 else 18)
        for n in sizes:
            for b in enumerate_bounded(k, n):
                c = bounded_to_core(b, k)
                assert is_core(c, k + 1)
                assert core_to_bounded(c, k) == b
                assert sum(core_to_bounded(c, k)) == sum(b)
                # the core dominates its bounded image row-wise
                assert all(x >= y for x, y in zip(c, b)) and len(c) == len(b)


@pytest.mark.parametrize("k", range(2, 7))
def test_core_to_bounded_matches_the_cell_count(k):
    """The bisection equals the cell-by-cell count on every core of the chain's levels.

    The chain's top level is one above its largest state (level 36 at k=6).
    """
    top = max(map(sum, enumerate_reduced_states(k))) + 1
    for n in range(top + 1):
        for core in cores_of_level(k, n):
            assert core_to_bounded(core, k) == oracles.core_to_bounded(core, k)


def test_core_to_bounded_matches_the_cell_count_on_any_partition():
    """The counted cells are a suffix of each row in every partition, not only in cores."""
    for n in range(13):
        for parts in enumerate_bounded(n, n):
            for k in range(1, 6):
                assert core_to_bounded(parts, k) == oracles.core_to_bounded(parts, k)


def test_k_conjugate_known_values():
    assert k_conjugate((2, 1), 3) == (2, 1)
    assert k_conjugate((1,), 3) == (1,)
    assert k_conjugate((2, 1, 1), 3) == (2, 1, 1)
    assert k_conjugate((1, 1), 3) == (2,)
    assert k_conjugate((2,), 3) == (1, 1)


def test_k_conjugate_is_ordinary_conjugate_transported():
    for k in (2, 3, 4):
        for n in range(0, 9):
            for b in enumerate_bounded(k, n):
                expected = core_to_bounded(conjugate(bounded_to_core(b, k)), k)
                assert k_conjugate(b, k) == expected


@settings(max_examples=150, deadline=None)
@given(partitions(max_n=16, max_part=4), st.integers(min_value=4, max_value=6))
def test_k_conjugate_involution(parts, k):
    assert k_conjugate(k_conjugate(parts, k), k) == parts


def test_reduce_examples():
    assert reduce_rectangles((4, 3, 1), 4) == ((3, 1), (0, 0, 0, 1))
    assert reduce_rectangles((2, 2, 1), 3) == ((1,), (0, 1, 0))
    assert reduce_rectangles(EMPTY, 3) == (EMPTY, (0, 0, 0))
    # A step names the rectangle type whose ledger count it raises: none for a
    # cover that only carries a rectangle its partition already held.
    assert Move(4, (1, 1), 4, Fraction(1, 4)) in growth_steps((3, 1, 1), 4)
    assert Move(1, (2, 1), None, Fraction(2, 3)) in growth_steps((2,), 3)
    assert growth_steps((4, 3), 4) == [
        Move(4, EMPTY, 4, Fraction(1, 4)),
        Move(1, (3, 1), None, Fraction(3, 4)),
    ]


@pytest.mark.parametrize("k", range(2, 7))
def test_growth_steps_follow_the_multiplicity_rule(k):
    """Column, target and removed type are those of ``reduce_rectangles(cover)``, size <= 12."""
    for n in range(13):
        for b in enumerate_bounded(k, n):
            steps = [(m.column, m.target, m.removed) for m in growth_steps(b, k)]
            assert steps == [
                oracles.growth_step_fields(b, cover, k) for cover in weak_covers_bounded(b, k)
            ]


def test_reduce_conserves_boxes():
    for k in (2, 3, 4):
        for n in range(0, 13):
            for b in enumerate_bounded(k, n):
                red, ledger = reduce_rectangles(b, k)
                assert is_reduced(red, k)
                area = sum(c * i * (k - i + 1) for i, c in enumerate(ledger, start=1))
                assert sum(red) + area == n
                # deletion acts on multisets: multiplicity arithmetic matches
                lb = Counter(b)
                lr = Counter(red)
                for i in range(1, k + 1):
                    assert lb[i] == lr[i] + ledger[i - 1] * (k - i + 1)


def test_complement_table_rows():
    assert complement(EMPTY, 4) == (3, 2, 2, 1, 1, 1)
    assert complement((2, 1), 4) == (3, 2, 1, 1)
    assert complement(EMPTY, 3) == (2, 1, 1)


def test_complement_involution_no_fixed_points():
    for k in range(2, 6):
        for s in enumerate_reduced_states(k):
            assert complement(complement(s, k), k) == s
            assert complement(s, k) != s


def test_complement_reverses_the_factorial_index():
    for k in range(1, 8):
        states = enumerate_reduced_states(k)
        for i, s in enumerate(states):
            assert complement(s, k) == states[len(states) - 1 - i]


def test_enumerate_reduced_states():
    assert set(enumerate_reduced_states(3)) == {
        EMPTY,
        (1,),
        (1, 1),
        (2,),
        (2, 1),
        (2, 1, 1),
    }
    assert enumerate_reduced_states(1) == (EMPTY,)
    for k in range(1, 7):
        states = enumerate_reduced_states(k)
        assert len(states) == len(set(states))
        assert len(states) == _factorial(k)
        assert [factorial_index(s, k) for s in states] == list(range(len(states)))


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_factorial_index_examples():
    assert factorial_index(EMPTY, 5) == 0
    assert factorial_index((2, 1, 1), 3) == 5
    assert factorial_index((1,), 4) == 6
    assert factorial_index(maximal_state(4), 4) == 23


def test_rectangles():
    assert rectangle(4, 4) == (4,)
    assert rectangle(1, 4) == (1, 1, 1, 1)
    assert parts_from_multiplicities(multiplicities((3, 2, 2), 4)) == (3, 2, 2)


def test_check_partition():
    assert check_partition([4, 3, 1]) == (4, 3, 1)
    assert check_partition([]) == EMPTY
    with pytest.raises(ValueError):
        check_partition((1, 2))
