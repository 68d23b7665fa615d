import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, factorial

import pytest

from coregrowth import cli, dimensions, verify_appendix
from coregrowth.chain import build_chain
from coregrowth.dimensions import (
    _dim_by_convolution,
    composition_sum,
    evaluate_displacements,
    hook_dim,
    inversion_displacements,
    long_column_vanishes,
    operator_windows,
    raising_apply,
    strong_dim_raising,
    strong_dim_tableaux,
    term_displacements,
    triangle_determinant,
    triangle_expand_intervals,
    triangle_expand_naive,
    triangle_vanishes,
)
from coregrowth.partitions import (
    EMPTY,
    bounded_to_core,
    conjugate,
    enumerate_reduced_states,
    k_conjugate,
)
from coregrowth.posets import (
    contains,
    cores_of_level,
    enumerate_bounded,
    skew_components,
    weak_covers_bounded,
    weak_dim,
)
from coregrowth.reporting import InvariantError

import oracles
from oracles import h_coefficient, rectangle, triangle_expand_inversions


def test_h_coefficient():
    assert h_coefficient((2, 1, 1)) == 12
    assert h_coefficient((2, 2)) == 6
    assert h_coefficient((5,)) == 1
    assert h_coefficient((1, -1, 2)) == 0
    assert h_coefficient(()) == 1


def test_raising_apply():
    assert raising_apply([(1, 2)], (1, 1)) == (2, 0)
    assert raising_apply([(1, 2), (1, 3)], (2, 1, 1)) == (4, 0, 0)
    assert raising_apply([], (3, 2)) == (3, 2)


def test_dimension_anchor_both_engines():
    assert strong_dim_raising((2, 1, 1), 3) == 6
    assert strong_dim_tableaux((2, 1, 1), 3) == 6


def test_dimension_small_values():
    assert strong_dim_raising((2, 1), 3) == 2
    assert strong_dim_raising((2, 2), 3) == 2
    assert strong_dim_raising((1,), 3) == 1
    assert strong_dim_raising(EMPTY, 5) == 1
    assert strong_dim_tableaux((2, 2), 3) == 2


def test_equals_hook_dim_when_k_large():
    for n in range(0, 7):
        for lam in enumerate_bounded(n if n else 1, n):
            k = max(9, n)
            assert strong_dim_raising(lam, k) == hook_dim(lam)
            assert strong_dim_tableaux(lam, k) == hook_dim(lam)


def test_engine_equivalence_on_states_and_covers():
    for k in (2, 3, 4):
        for s in enumerate_reduced_states(k):
            assert strong_dim_raising(s, k) == strong_dim_tableaux(s, k)
            for cov in weak_covers_bounded(s, k):
                assert strong_dim_raising(cov, k) == strong_dim_tableaux(cov, k)


def test_subsets_vs_convolution():
    """The product of every row's (1 - R_ij) subsets, summed term by term."""
    rng = random.Random(11)
    for k in (3, 4, 5):
        for _ in range(40):
            n = rng.randint(1, 10)
            lam = []
            while sum(lam) + 1 <= n and len(lam) < 8:
                lam.append(rng.randint(1, k))
            lam = tuple(sorted(lam, reverse=True))
            if not lam:
                continue
            windows = [[j for j in w if j <= len(lam)] for w in operator_windows(lam, k)]
            rows = [
                [[(i, j) for j in sub] for size in range(len(w) + 1) for sub in combinations(w, size)]
                for i, w in enumerate(windows, start=1)
            ]
            terms = [(sum(pick, []), (-1) ** sum(map(len, pick))) for pick in product(*rows)]
            assert _dim_by_convolution(lam, k) == evaluate_displacements(
                term_displacements(terms), lam
            )


def test_pieri_row_sums():
    for k in (2, 3, 4):
        for s in enumerate_reduced_states(k):
            n = sum(s)
            total = sum(
                Fraction(strong_dim_tableaux(c, k), (n + 1) * strong_dim_tableaux(s, k))
                for c in weak_covers_bounded(s, k)
            )
            assert total == 1


def test_rectangle_factorization():
    for k in (2, 3, 4):
        for s in enumerate_reduced_states(k):
            for i in range(1, k + 1):
                rect = rectangle(i, k)
                merged = tuple(sorted(s + rect, reverse=True))
                area = len(rect) * i
                expected = (
                    comb(sum(s) + area, area)
                    * hook_dim(rect)
                    * strong_dim_tableaux(s, k)
                )
                assert strong_dim_tableaux(merged, k) == expected


def test_conjugation_invariance():
    for k in (2, 3, 4):
        for s in enumerate_reduced_states(k):
            assert strong_dim_tableaux(s, k) == strong_dim_tableaux(k_conjugate(s, k), k)


def test_sandwich():
    for k in (2, 3, 4):
        for n in range(0, 9):
            for lam in enumerate_bounded(k, n):
                w = weak_dim(lam, k)
                d = hook_dim(lam)
                dk = strong_dim_tableaux(lam, k)
                assert w <= d <= dk
                if k >= n:
                    assert w == d == dk


def test_plancherel_normalization():
    for k in (3, 4):
        for n in range(1, 7):
            total = sum(
                weak_dim(lam, k) * strong_dim_tableaux(lam, k)
                for lam in enumerate_bounded(k, n)
            )
            assert total == factorial(n)


# --- triangle operator calculus ------------------------------------------

def test_inversion_expansion_t2():
    terms = dict(triangle_expand_inversions(2))
    assert terms == {frozenset(): 1, frozenset({(1, 2)}): -1}


def test_inversion_expansion_counts():
    for t in range(1, 7):
        terms = triangle_expand_inversions(t)
        assert len(terms) == factorial(t)
        signs = sum(s for _p, s in terms)
        assert signs == (1 if t == 1 else 0)


def test_interval_expansion_displays():
    # four, eight and sixteen term displays
    k3 = {(frozenset(p), s) for p, s in triangle_expand_intervals(3)}
    assert k3 == {
        (frozenset(), 1),
        (frozenset({(1, 2)}), -1),
        (frozenset({(2, 3)}), -1),
        (frozenset({(1, 2), (1, 3)}), 1),
    }
    k4 = {(frozenset(p), s) for p, s in triangle_expand_intervals(4)}
    assert k4 == {
        (frozenset(), 1),
        (frozenset({(1, 2)}), -1),
        (frozenset({(2, 3)}), -1),
        (frozenset({(3, 4)}), -1),
        (frozenset({(1, 2), (1, 3)}), 1),
        (frozenset({(2, 3), (2, 4)}), 1),
        (frozenset({(1, 2), (3, 4)}), 1),
        (frozenset({(1, 2), (1, 3), (1, 4)}), -1),
    }
    k5 = {(frozenset(p), s) for p, s in triangle_expand_intervals(5)}
    expected_k5 = {
        (frozenset(), 1),
        (frozenset({(1, 2)}), -1),
        (frozenset({(2, 3)}), -1),
        (frozenset({(3, 4)}), -1),
        (frozenset({(4, 5)}), -1),
        (frozenset({(1, 2), (1, 3)}), 1),
        (frozenset({(2, 3), (2, 4)}), 1),
        (frozenset({(3, 4), (3, 5)}), 1),
        (frozenset({(1, 2), (3, 4)}), 1),
        (frozenset({(1, 2), (4, 5)}), 1),
        (frozenset({(2, 3), (4, 5)}), 1),
        (frozenset({(1, 2), (1, 3), (1, 4)}), -1),
        (frozenset({(1, 2), (1, 3), (4, 5)}), -1),
        (frozenset({(1, 2), (3, 4), (3, 5)}), -1),
        (frozenset({(2, 3), (2, 4), (2, 5)}), -1),
        (frozenset({(1, 2), (1, 3), (1, 4), (1, 5)}), 1),
    }
    assert k5 == expected_k5


def test_interval_full_arity_term_count():
    assert len(triangle_expand_intervals(4, universe=4)) == 16
    assert len(triangle_expand_intervals(4, universe=3)) == 8


def test_inversion_vs_naive_on_random_vectors():
    rng = random.Random(3)
    for t in range(2, 6):
        inv = triangle_expand_inversions(t)
        naive = triangle_expand_naive(t)
        for _ in range(25):
            vec = tuple(rng.randint(0, 6) for _ in range(t))
            assert evaluate_displacements(term_displacements(inv), vec) == evaluate_displacements(
                term_displacements(naive), vec
            )


def test_displacements_match_direct_raising_moves():
    """The net-displacement evaluation equals applying every term's moves."""
    rng = random.Random(7)
    for t in range(1, 6):
        term_sets = [triangle_expand_inversions(t), triangle_expand_naive(t)]
        if t >= 2:
            term_sets.append(triangle_expand_intervals(t, universe=t))
        for terms in term_sets:
            for shift in (0, 1, 3):
                moved = oracles.shifted_terms(terms, shift)
                for _ in range(5):
                    vec = tuple(rng.randint(-1, 5) for _ in range(rng.randint(1, t + shift + 2)))
                    top = max([len(vec)] + [j for pairs, _s in moved for _i, j in pairs])
                    base = vec + (0,) * (top - len(vec))
                    direct = sum(sign * h_coefficient(raising_apply(pairs, base)) for pairs, sign in moved)
                    assert evaluate_displacements(term_displacements(moved), vec) == direct


def test_merged_displacements_sum_the_signs_of_equal_terms():
    """Each distinct displacement appears once, with its terms' signs summed."""
    for t in range(1, 6):
        term_sets = [triangle_expand_inversions(t), triangle_expand_naive(t)]
        if t >= 2:
            term_sets.append(triangle_expand_intervals(t, universe=t))
        for terms in term_sets:
            for shift in (0, 2):
                moved = oracles.shifted_terms(terms, shift)
                top = max([0] + [j for pairs, _s in moved for _i, j in pairs])
                counts = Counter()
                for pairs, sign in moved:
                    counts[raising_apply(pairs, (0,) * top)] += sign
                expected = {delta: sign for delta, sign in counts.items() if sign}
                assert dict(term_displacements(moved)) == expected


def test_inversion_and_naive_expansions_merge_to_one_map():
    """The inversion expansion is the naive one with its cancellations done.

    An identity of term sets, so it holds on every vector; the suite's
    random-vector comparison only samples it.
    """
    for t in range(2, 7):
        inversions = dict(term_displacements(triangle_expand_inversions(t)))
        assert len(inversions) == factorial(t)
        assert dict(term_displacements(triangle_expand_naive(t))) == inversions


def test_displacements_read_off_permutations_match_the_inversion_sets():
    """Position minus value, signed by parity: the inversion sets' displacements, in order.

    Shifted sets give the same displacements after ``shift`` zeros, except
    at t = 1, whose one empty set moves nothing.
    """
    for t in range(1, 8):
        terms = triangle_expand_inversions(t)
        by_perms = list(inversion_displacements(t))
        for shift in (0, 1, 3):
            pad = (0,) * shift if t > 1 else ()
            shifted = list(term_displacements(oracles.shifted_terms(terms, shift)))
            assert [(pad + delta, sign) for delta, sign in by_perms] == shifted
    with pytest.raises(ValueError):
        list(inversion_displacements(0))


def test_bareiss_determinant_matches_fraction_elimination():
    """Seeded vectors with t = 1..7 and entries in [-3, 8] against the oracle.

    A negative first entry zeroes the first pivot, so a non-zero determinant
    then needs a row swap; a row whose largest index v_i - i + t - 1 is
    negative is all zero.  The vectors must include both.
    """
    rng = random.Random(19)
    vectors = [(-1, 2), (-3, 0), (0, -1, 5), (2, -2, 0, 7)]
    vectors += [tuple(rng.randint(-3, 8) for _ in range(t)) for t in range(1, 8) for _ in range(200)]
    swapped = zero_row = 0
    for vec in vectors:
        value = triangle_determinant(vec)
        assert value == oracles.triangle_determinant(vec), vec
        swapped += vec[0] < 0 and value != 0
        zero_row += any(v - i + len(vec) - 1 < 0 for i, v in enumerate(vec))
    assert swapped and zero_row


def test_triangle_determinant_matches_inversions(monkeypatch):
    rng = random.Random(12)
    vectors = [
        tuple(rng.randint(lo, 7) for _ in range(t))
        for t in range(1, 7)
        for lo in (0, -3)
        for _ in range(30)
    ]
    seen = []
    vanishes = verify_appendix.triangle_vanishes
    monkeypatch.setattr(
        verify_appendix, "triangle_vanishes", lambda vec, t: seen.append(vec) or vanishes(vec, t)
    )
    assert verify_appendix.verify_vanishing(5, 4).passed
    assert len(seen) == 1588
    inversions = {t: tuple(term_displacements(triangle_expand_inversions(t))) for t in range(1, 7)}
    for vec in vectors + seen:
        expected = evaluate_displacements(inversions[len(vec)], vec)
        assert triangle_determinant(vec) == expected
        if min(vec) >= 0:
            assert triangle_vanishes(vec) == (expected == 0)
    with pytest.raises(ValueError):
        triangle_determinant(())
    with pytest.raises(ValueError):
        triangle_vanishes(())
    monkeypatch.setattr(dimensions, "triangle_determinant", lambda vec: Fraction(1, 2))
    with pytest.raises(InvariantError):
        triangle_vanishes((1, 2))


@pytest.mark.parametrize(
    "failing, witness",
    [
        ((0, 1), {"case": "staircase-tail", "t": 1, "mu": (0, 1), "rows": (1, 2)}),
        ((0, 0, 2, 1), {"case": "below-staircase", "t": 3, "mu": (0, 0, 2, 1), "rows": (1, 3)}),
    ],
)
def test_vanishing_witness_names_two_equal_rows(monkeypatch, failing, witness):
    monkeypatch.setattr(verify_appendix, "triangle_vanishes", lambda vec, t: vec != failing)
    report = verify_appendix.verify_vanishing(5, 4)
    assert not report.passed
    assert report.witness == witness


def test_inversion_suite_catches_a_wrong_determinant(monkeypatch):
    def shifted(vec):
        """N! det[1/(v_i + j - i + 1)!]: every column one place off."""
        n, t = sum(vec), len(vec)
        moved = triangle_determinant(tuple(v + 1 for v in vec))
        return moved * Fraction(factorial(n), factorial(n + t))

    assert verify_appendix.verify_inversion_expansion(3, 20, seed=5).passed
    monkeypatch.setattr(verify_appendix, "triangle_determinant", shifted)
    report = verify_appendix.verify_inversion_expansion(3, 20, seed=5)
    assert not report.passed
    assert set(report.witness) == {"t", "vec"}
    assert len(report.witness["vec"]) == report.witness["t"]


def test_interval_vs_inversion_on_ones():
    for k in range(2, 9):
        ones = (1,) * (k - 1)
        values = {
            evaluate_displacements(term_displacements(terms), ones)
            for terms in (
                triangle_expand_inversions(k - 1),
                triangle_expand_intervals(k, universe=k - 1),
                triangle_expand_intervals(k, universe=k),
            )
        }
        assert values == {1}


def test_composition_sum():
    assert composition_sum(1) == 1
    assert composition_sum(2) == Fraction(1, 2)
    assert composition_sum(6) == Fraction(1, 720)
    for m in range(1, 13):
        assert composition_sum(m) == oracles.composition_sum(m) == Fraction(1, factorial(m))


def test_triangle_vanishing_base_cases():
    for c in range(0, 5):
        assert triangle_vanishes((c, c + 1), 1)
    assert triangle_vanishes((5, 5, 5, 7), 3)
    assert triangle_determinant((5, 5, 5, 5)) != 0
    assert not triangle_vanishes((5, 5, 5, 5), 3)
    with pytest.raises(ValueError):
        triangle_vanishes((1, 2), 3)


def test_long_column_determinant_equals_the_shifted_inversion_expansion():
    """The triangle over entries s+1 .. s+t is a multinomial times the block's determinant.

    ``long_column_vanishes`` tests that product for zero instead of
    evaluating the t! shifted displacements.  Seeded vectors with negative
    entries, t = 1..5 and s = 0..4; a negative entry among the first s, or a
    negative block sum, zeroes every term.
    """
    rng = random.Random(35)
    nonzero = 0
    for t in range(1, 6):
        terms = triangle_expand_inversions(t)
        for s in range(5):
            shifted = tuple(term_displacements(oracles.shifted_terms(terms, s)))
            for _ in range(150):
                vec = tuple(rng.randint(-2, 4) for _ in range(s + t))
                head, block = vec[:s], sum(vec[s:])
                value = evaluate_displacements(shifted, vec)
                if min(head, default=0) < 0 or block < 0:
                    assert value == 0, vec
                    continue
                multinomial = factorial(sum(vec))
                for m in head + (block,):
                    multinomial //= factorial(m)
                assert value == multinomial * triangle_determinant(vec[s:]), vec
                nonzero += value != 0
    assert nonzero > 500


def test_long_column_vanishing():
    assert long_column_vanishes((2, 1, 1), 3)
    assert long_column_vanishes((2, 1, 1, 1), 3)
    assert long_column_vanishes((1, 1), 2)  # no operators above: vacuous
    with pytest.raises(ValueError):
        long_column_vanishes((2, 2), 3)


def chain_partitions(k):
    """The k! states and their weak covers: the partitions ``build_chain`` reads."""
    return [lam for s in enumerate_reduced_states(k) for lam in [s] + weak_covers_bounded(s, k)]


def chain_levels(k):
    """The highest bounded size among the k! states and their weak covers."""
    return max(sum(s) for s in enumerate_reduced_states(k)) + 1


@cache
def all_pairs_table(k, levels):
    """The tableaux table with every core of the level below as a candidate.

    Uses no symmetry.  Returns the table and each core's strong covers, the
    cores of the level below that it contains.  Cached: callers must not
    change either.
    """
    table = {EMPTY: 1}
    covers = {EMPTY: []}
    for n in range(1, levels + 1):
        prev = cores_of_level(k, n - 1)
        for kappa in cores_of_level(k, n):
            below = covers[kappa] = [tau for tau in prev if contains(kappa, tau)]
            table[kappa] = sum(skew_components(kappa, tau) * table[tau] for tau in below)
    return table, covers


def paired_cover_count(covers):
    """The covers of one member of each transposed pair of cores.

    A fill that stores d(kappa) under kappa and its transpose tests exactly
    these covers.  Both members of a pair have equally many covers, which is
    checked here, so it does not matter which one the fill reaches first.
    """
    total = 0
    for kappa, below in covers.items():
        partner = conjugate(kappa)
        assert len(covers[partner]) == len(below), kappa
        if kappa <= partner:
            total += len(below)
    return total


@pytest.mark.parametrize("k, covers", [(2, 3), (3, 25), (4, 317), (5, 5205)])
def test_indexed_scan_matches_all_pairs_oracle(monkeypatch, k, covers):
    levels = chain_levels(k)
    oracle, oracle_covers = all_pairs_table(k, levels)
    assert sum(map(len, oracle_covers.values())) == covers
    scanned = paired_cover_count(oracle_covers)
    assert scanned == {2: 2, 3: 17, 4: 173, 5: 2729}[k]
    hits = 0

    def counting_contains(outer, inner):
        nonlocal hits
        found = contains(outer, inner)
        hits += found
        return found

    monkeypatch.setattr(dimensions, "_TABLES", {})
    monkeypatch.setattr(dimensions, "contains", counting_contains)
    assert dimensions.dimension_table(k, levels) == oracle
    assert hits == scanned


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_transposed_cores_have_equal_dimensions(k):
    """d(kappa) = d(kappa^T) in the all-pairs table, which uses no symmetry.

    Transposition maps each level's cores onto that level's cores, the
    covers of kappa onto the covers of kappa^T, and keeps the components of
    every skew shape.
    """
    levels = chain_levels(k)
    oracle, covers = all_pairs_table(k, levels)
    for n in range(levels + 1):
        level = set(cores_of_level(k, n))
        assert set(map(conjugate, level)) == level
    for kappa, below in covers.items():
        partner = conjugate(kappa)
        assert sorted(map(conjugate, below)) == sorted(covers[partner])
        for tau in below:
            assert skew_components(partner, conjugate(tau)) == skew_components(kappa, tau)
        assert oracle[partner] == oracle[kappa]


def strong_ideal(k, partitions):
    """The cores of ``partitions`` and every core below them in the strong order.

    Closed downwards one level at a time with every core of the level below
    as a candidate, as in ``all_pairs_table``.
    """
    by_level = {}
    for parts in partitions:
        by_level.setdefault(sum(parts), set()).add(bounded_to_core(parts, k))
    ideal = {EMPTY}
    for n in range(max(by_level), 0, -1):
        upper = by_level.get(n, set())
        ideal |= upper
        below = by_level.setdefault(n - 1, set())
        below.update(tau for tau in cores_of_level(k, n - 1) if any(contains(kappa, tau) for kappa in upper))
    return ideal


@pytest.mark.parametrize("k", [3, 4, 5])
def test_lookups_fill_only_the_strong_order_ideal(monkeypatch, k):
    oracle, _covers = all_pairs_table(k, chain_levels(k))
    states = enumerate_reduced_states(k)
    biggest = max(states, key=sum)
    others = random.Random(k).sample([s for s in states if s != biggest], 3)
    monkeypatch.setattr(dimensions, "_TABLES", {})
    asked = []
    for s in [biggest] + others:
        assert strong_dim_tableaux(s, k) == oracle[bounded_to_core(s, k)]
        asked.append(s)
        by_core = dimensions._TABLES[k].by_core
        assert by_core.keys() == strong_ideal(k, asked)
        assert by_core == {core: oracle[core] for core in by_core}


def test_chain_fills_the_ideal_of_its_partitions(fresh_memos):
    k = 5
    partitions = chain_partitions(k)
    build_chain(k)
    by_core = dimensions._TABLES[k].by_core
    assert by_core.keys() == strong_ideal(k, partitions)
    assert len(by_core) == 698
    assert sum(len(cores_of_level(k, n)) for n in range(chain_levels(k) + 1)) == 1346


@pytest.mark.parametrize("k, pairs", [(3, 9), (4, 45), (5, 375)])
def test_chain_fills_each_transposed_pair_of_its_ideal_once(monkeypatch, fresh_memos, k, pairs):
    filled = []
    scan = dimensions._DimTable._scan

    def counting_scan(self, kappa, n):
        filled.append(kappa)
        return scan(self, kappa, n)

    monkeypatch.setattr(dimensions._DimTable, "_scan", counting_scan)
    build_chain(k)
    ideal = strong_ideal(k, chain_partitions(k))
    expected = {frozenset({kappa, conjugate(kappa)}) for kappa in ideal if kappa}
    assert len(expected) == pairs
    assert len(filled) == pairs
    assert {frozenset({kappa, conjugate(kappa)}) for kappa in filled} == expected
    assert dimensions._TABLES[k].by_core.keys() == ideal


@pytest.mark.parametrize("k", [4, 5])
def test_lazy_lookups_in_any_order_complete_to_the_level_table(monkeypatch, k):
    """A table filled by lookups completes to the all-pairs table."""
    levels = chain_levels(k)
    oracle, covers = all_pairs_table(k, levels)
    lookups = chain_partitions(k)
    random.Random(2 * k + 1).shuffle(lookups)
    hits = 0

    def counting_contains(outer, inner):
        nonlocal hits
        found = contains(outer, inner)
        hits += found
        return found

    monkeypatch.setattr(dimensions, "_TABLES", {})
    monkeypatch.setattr(dimensions, "contains", counting_contains)
    for lam in lookups:
        assert strong_dim_tableaux(lam, k) == oracle[bounded_to_core(lam, k)]
    assert dimensions._TABLES[k].by_core.keys() == strong_ideal(k, lookups)
    assert dimensions.dimension_table(k, levels) == oracle
    # Lookups and completion together scan each transposed pair once.
    assert hits == paired_cover_count(covers)


@pytest.mark.parametrize(
    "argv",
    [["chain", "--k", "3"], ["simulate", "--k", "3", "--n", "10000"]],
    ids=["chain", "simulate"],
)
def test_smoke_runs_reject_a_containment_candidate(monkeypatch, fresh_memos, tmp_path, argv):
    """Each benchmark smoke command tests more cores than its table's covers.

    perfbench's per-layer test (``perfbench/test_perfbench.py:54``) asserts
    ``dimensions.contains.calls > hits > 0`` on these commands at k=3, so a
    table index tight enough to leave ``contains`` nothing to reject there
    fails this test first.  ``simulate`` keeps a margin of one rejected
    candidate.  ROADMAP item 5, which makes call counts reported values,
    would retire both.
    """
    calls = hits = 0

    def counting_contains(outer, inner):
        nonlocal calls, hits
        found = contains(outer, inner)
        calls += 1
        hits += found
        return found

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dimensions, "contains", counting_contains)
    assert cli.main(argv) == 0
    assert calls > hits > 0


def test_memo_hit_builds_and_scans_nothing(monkeypatch):
    k = 4
    lookups = chain_partitions(k)
    monkeypatch.setattr(dimensions, "_TABLES", {})
    values = [strong_dim_tableaux(lam, k) for lam in lookups]

    def forbidden(*args):
        raise AssertionError(f"a memo hit called {args!r}")

    monkeypatch.setattr(dimensions, "_DimTable", forbidden)
    monkeypatch.setattr(dimensions, "contains", forbidden)
    monkeypatch.setattr(dimensions, "cores_of_level", forbidden)
    assert [strong_dim_tableaux(lam, k) for lam in lookups] == values


def test_engine_equivalence_k5_full():
    from coregrowth.partitions import enumerate_reduced_states

    for s in enumerate_reduced_states(5):
        for lam in [s] + weak_covers_bounded(s, 5):
            assert strong_dim_raising(lam, 5) == strong_dim_tableaux(lam, 5)


def test_engine_equivalence_k6_spots():
    for lam in ((3, 2, 1), (5, 4, 3, 2, 1), (4, 4, 3, 2, 2, 1, 1)):
        assert strong_dim_raising(lam, 6) == strong_dim_tableaux(lam, 6)
