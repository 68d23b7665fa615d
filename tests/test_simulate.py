import dataclasses
import json
import math
import os
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from coregrowth import simulate, tasep
from coregrowth import chain as chain_mod
from coregrowth.chain import MarkovChain, build_chain, rho_vector, stationary
from coregrowth.partitions import (
    EMPTY,
    bounded_to_core,
    check_reduced,
    factorial_index,
    multiplicities,
    parts_from_multiplicities,
    rectangle_area,
)
from coregrowth.reporting import InvariantError, UsageError
from coregrowth.simulate import (
    BLOCK,
    SimConfig,
    boundary_csv,
    compare_to_limit,
    initial_frontiers,
    limit_curve_vertices,
    occupancy_csv,
    overlay_svg,
    rho_csv,
    run_simulation,
    verify_projection,
    write_outputs,
)
from coregrowth.tasep import alpha_inv
from oracles import labelled_chain


def reconstruct_core(reduced, ledger, k, max_parts=1_000_000):
    """Core of the un-reduced partition (reduced plus ledgered rectangles)."""
    reduced = check_reduced(reduced, k)
    l = list(multiplicities(reduced, k))
    for i, c in enumerate(ledger, start=1):
        l[i - 1] += c * (k - i + 1)
    if sum(l) > max_parts:
        raise MemoryError(
            f"reconstruction needs {sum(l)} rows; raise max_parts to allow it"
        )
    return bounded_to_core(parts_from_multiplicities(l), k)


def core_parts_from_frontiers(frontiers, k, max_parts=500_000):
    """Explicit core rows encoded by a frontier vector (for cross-checks)."""
    r = k + 1
    top = max(frontiers)
    bottom = min(frontiers)
    parts = []
    vac_below = sum(
        1 for p in range(bottom + 1, top + 1) if frontiers[p % r] < p
    )
    for p in range(top, bottom, -1):
        if frontiers[p % r] >= p and vac_below > 0:
            parts.append(vac_below)
        if p - 1 > bottom and frontiers[(p - 1) % r] < p - 1:
            vac_below -= 1
        if len(parts) > max_parts:
            raise MemoryError("frontier spread too large for explicit rows")
    return tuple(parts)


def reference_run(config):
    """The step-by-step kernel: one threshold scan and one label update per step.

    It walks the reduced chain and updates the ledger, frontiers, labels and
    occupancy at every step; ``run_simulation`` must reproduce it exactly.
    """
    k = config.k
    mc = build_chain(k)
    tables = []
    for moves in mc.moves:
        acc = 0.0
        rows = []
        for m in moves:
            acc += float(m.rate)
            rows.append((acc, factorial_index(m.target, mc.k), m.column, m.removed or 0))
        rows[-1] = (1.0 + 1e-12, *rows[-1][1:])  # guard the top bucket
        tables.append(rows)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    state = 0
    ledger = [0] * k
    frontiers = initial_frontiers(k)
    label_class = list(range(k + 1))  # label i+1 sits at class label_class[i]
    class_label = list(range(1, k + 2))  # inverse map
    occupancy = np.zeros(len(mc.states), dtype=np.int64)
    checkpoints = []

    done = 0
    block = 65536
    while done < config.n:
        todo = min(block, config.n - done)
        for u in rng.random(todo):
            for acc, target, column, removed in tables[state]:
                if u < acc:
                    break
            state = target
            if removed:
                ledger[removed - 1] += 1
            c = label_class[column - 1]
            sigma = (c - 1) % (k + 1)
            other = class_label[sigma]
            frontiers[sigma], frontiers[c] = frontiers[c] - 1, frontiers[sigma] + 1
            label_class[column - 1], label_class[other - 1] = sigma, c
            class_label[sigma], class_label[c] = column, other
            occupancy[state] += 1
            done += 1
            if config.checkpoint_every and done % config.checkpoint_every == 0:
                checkpoints.append((done, state, tuple(ledger)))
    return mc.states[state], tuple(ledger), occupancy, tuple(frontiers), checkpoints


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_count_kernel_matches_step_by_step_reference(k):
    n = 12_000
    assert n % BLOCK and 10_000 > BLOCK
    for seed in (k, 100 + k):
        # checkpointing every step gives every other spacing's checkpoints
        state, ledger, occupancy, frontiers, every_step = reference_run(
            SimConfig(k=k, n=n, seed=seed, checkpoint_every=1)
        )
        # none, divides n, spans a block boundary without dividing n, small
        for every in (0, 6_000, 10_000, 997):
            config = SimConfig(k=k, n=n, seed=seed, checkpoint_every=every, boundary_samples=50)
            result = run_simulation(config)
            assert result.final_state == state
            assert result.ledger == ledger
            assert result.occupancy.dtype == occupancy.dtype
            assert np.array_equal(result.occupancy, occupancy)
            assert result.frontiers == frontiers
            expected = [cp for cp in every_step if every and cp[0] % every == 0]
            assert result.checkpoints == expected
            assert len(expected) == (n // every if every else 0)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_labelled_chain_closes_on_all_label_arrangements(k):
    chain = labelled_chain(build_chain(k))
    assert len(chain.reduced) == len(set(chain.arrangements)) == math.factorial(k + 1)
    assert all(sorted(arr) == list(range(k + 1)) for arr in chain.arrangements)
    assert len(chain.base) == len(chain.rotation) == len(chain.reduced)
    assert len(chain.nxt) == len(chain.other)


def test_broken_label_correspondence_raises(monkeypatch):
    """Swapping the grown columns of two moves keeps box conservation but
    leaves the labels where no rotation of the target's word puts them."""
    mc = build_chain(3)
    moves = [list(row) for row in mc.moves]
    first, second = moves[1][:2]
    moves[1][0] = dataclasses.replace(first, column=second.column)
    moves[1][1] = dataclasses.replace(second, column=first.column)
    broken = MarkovChain(mc.k, mc.states, moves)
    monkeypatch.setattr(simulate.chain_mod, "build_chain", lambda k: broken)
    with pytest.raises(InvariantError, match="not a TASEP jump"):
        run_simulation(SimConfig(k=3, n=10, seed=1))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_labelled_states_are_the_rotations_of_one_arrangement(k):
    """In the labelled closure each reduced state carries exactly k+1
    arrangements, all rotations of its first-reached one, and ``rotation``
    names the shift of each."""
    mc = build_chain(k)
    chain = labelled_chain(mc)
    r = k + 1
    by_state = {}
    for a, s in enumerate(chain.reduced):
        by_state.setdefault(s, []).append(a)
    assert sorted(by_state) == list(range(len(mc.states)))
    for s, labelled in by_state.items():
        assert chain.canonical[s] == labelled[0]
        first = chain.arrangements[labelled[0]]
        arrangements = [chain.arrangements[a] for a in labelled]
        assert len(arrangements) == r
        assert set(arrangements) == {tuple((c + t) % r for c in first) for t in range(r)}
        for a in labelled:
            assert chain.arrangements[a] == tuple((c + chain.rotation[a]) % r for c in first)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_reduced_moves_agree_across_rotations(k):
    """In the labelled closure a reduced move steps the rotation by one
    amount and jumps over one label from all k+1 arrangements of its state."""
    mc = build_chain(k)
    chain = labelled_chain(mc)
    r = k + 1
    seen = {}
    for a, s in enumerate(chain.reduced):
        for i in range(len(mc.moves[s])):
            j = chain.base[a] + i
            seen.setdefault((s, i), set()).add(
                ((chain.rotation[chain.nxt[j]] - chain.rotation[a]) % r, chain.other[j])
            )
    assert len(seen) == sum(len(row) for row in mc.moves)
    assert all(len(found) == 1 for found in seen.values())


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_word_tables_match_the_labelled_closure(k):
    """The word tables are the closure's canonical rows up to one rotation
    d_s per state, with d_0 = 0: the closure's arrangement of s is the
    arrangement of s's word shifted by d_s, every move jumps over the same
    label and reaches the same state, and its turn, one for a jump over k+1
    and none otherwise, differs from the closure's by d_s - d_t, which
    telescopes away over any path."""
    mc = build_chain(k)
    walk = simulate._sampling_tables(mc)
    chain = labelled_chain(mc)
    r = k + 1
    d = []
    for s, state in enumerate(mc.states):
        word = alpha_inv(state, k)
        arrangement = tuple(word.index(label) for label in range(1, r + 1))
        canonical = chain.arrangements[chain.canonical[s]]
        shift = (canonical[0] - arrangement[0]) % r
        assert canonical == tuple((c + shift) % r for c in arrangement)
        d.append(shift)
    assert d[0] == 0 and alpha_inv(mc.states[0], k) == tuple(range(1, r + 1))
    assert len(walk.moves) == sum(map(len, mc.moves))
    moves = iter(walk.moves)
    for s, row in enumerate(mc.moves):
        for i, move in enumerate(row):
            t, removed, column, other = next(moves)
            j = chain.base[chain.canonical[s]] + i
            assert (column, removed) == (move.column, move.removed or 0)
            assert t == chain.reduced[chain.nxt[j]]
            assert other == chain.other[j]
            turn = int(other == k + 1)
            assert chain.rotation[chain.nxt[j]] == (turn + d[s] - d[t]) % r


def test_tampered_target_raises():
    """Sending a move to any other state leaves the labels where no rotation
    of the new target's word puts them."""
    mc = build_chain(3)
    simulate._sampling_tables(mc)  # the untampered chain passes
    for s, row in enumerate(mc.moves):
        for i, m in enumerate(row):
            wrong = mc.states[(factorial_index(m.target, 3) + 1 + s) % len(mc.states)]
            if wrong == m.target:
                continue
            moves = [list(r) for r in mc.moves]
            moves[s][i] = dataclasses.replace(m, target=wrong)
            tampered = MarkovChain(mc.k, mc.states, moves)
            with pytest.raises(InvariantError, match="not a TASEP jump"):
                simulate._sampling_tables(tampered)


def test_a_missing_jump_raises():
    """A chain that lacks one admissible jump of a state's word is not the TASEP."""
    mc = build_chain(3)
    s = next(s for s, row in enumerate(mc.moves) if len(row) > 1)
    moves = [list(row) for row in mc.moves]
    del moves[s][0]
    with pytest.raises(InvariantError, match="not a TASEP jump"):
        simulate._sampling_tables(MarkovChain(mc.k, mc.states, moves))


def test_a_word_map_that_merges_states_raises(monkeypatch):
    """Targets compare by word only while ``alpha_inv`` tells the states apart."""
    mc = build_chain(3)
    monkeypatch.setattr(tasep, "alpha_inv", lambda parts, k: tuple(range(1, k + 2)))
    with pytest.raises(InvariantError, match="not a TASEP jump"):
        simulate._sampling_tables(mc)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_symbols_pick_the_bisect_move_of_every_state(k):
    """At every break, just below it, at 0 and on random draws, the one
    global symbol picks from each state the move ``bisect_right`` picks."""
    mc = build_chain(k)
    walk = simulate._sampling_tables(mc)
    cums = [list(accumulate(float(m.rate) for m in moves)) for moves in mc.moves]
    for row in cums:
        row[-1] = 1.0 + 1e-12  # guard the top bucket
    breaks = np.array(sorted({c for row in cums for c in row}))
    assert np.array_equal(walk.breaks[: len(breaks)], breaks)
    draws = np.concatenate(
        (breaks, np.nextafter(breaks, 0), [0.0], np.random.default_rng(k).random(2000))
    )
    draws = draws[draws < 1]  # a draw is below 1; the top threshold lies above it
    g = simulate._symbols(walk, draws)
    assert np.array_equal(g, np.searchsorted(breaks, draws, side="right"))
    first = 0
    for s, row in enumerate(cums):
        picked = [first + bisect_right(row, u) for u in draws.tolist()]
        assert walk.step_move[s, g].tolist() == picked
        first += len(row)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_composed_table_is_m_single_steps_within_the_cap(k):
    walk = simulate._sampling_tables(build_chain(k))
    states, symbols = walk.step_move.shape
    width = symbols**walk.m
    assert states * width <= simulate.COMPOSED_ENTRIES or walk.m == 1
    assert states * width * symbols > simulate.COMPOSED_ENTRIES
    assert walk.composed_move.shape == (states * width, walk.m)
    assert walk.step_move.itemsize <= 2 and walk.composed_move.itemsize <= 2
    if k > 4:
        return
    targets = np.array([move[0] for move in walk.moves])
    state = np.repeat(np.arange(states), width)
    c = np.tile(np.arange(width), states)
    for t in range(walk.m):
        g = c // symbols ** (walk.m - 1 - t) % symbols
        assert np.array_equal(walk.composed_move[:, t], walk.step_move[state, g])
        state = targets[walk.step_move[state, g]]


def test_config_parsing():
    cfg = SimConfig.from_json('{"k": 3, "n": 100, "seed": 5}')
    assert (cfg.k, cfg.n, cfg.seed) == (3, 100, 5)
    with pytest.raises(UsageError):
        SimConfig.from_json('{"k": 3}')
    with pytest.raises(UsageError):
        SimConfig.from_json('{"k": 1, "n": 10}')
    with pytest.raises(UsageError):
        SimConfig.from_json('{"k": 3, "n": 10, "outputs": {"bogus": "x"}}')
    with pytest.raises(UsageError):
        SimConfig.from_json("not json")
    with pytest.raises(UsageError):
        SimConfig.from_json('{"k": "three", "n": 10}')
    with pytest.raises(UsageError):
        SimConfig.from_json('{"k": 3, "n": 10, "outputs": {"svg": 5}}')
    with pytest.raises(UsageError):
        SimConfig(k=2, n=0).validate()
    with pytest.raises(UsageError):
        SimConfig.from_json('{"k": 3, "n": 10, "seed": -1}')
    # a float, bool or string integer field is refused, never coerced
    for value in (3.0, True, "3"):
        for key in ("k", "n", "seed", "checkpoint_every", "boundary_samples"):
            obj = {"k": 3, "n": 10, key: value}
            with pytest.raises(UsageError, match=f"{key} must be an integer"):
                SimConfig.from_dict(obj)
            with pytest.raises(UsageError, match=f"{key} must be an integer"):
                SimConfig(**obj).validate()
    with pytest.raises(UsageError, match="outputs must map"):
        SimConfig.from_json('{"k": 3, "n": 10, "outputs": 5}')


def test_projection_consistency():
    assert verify_projection(3, 10).passed
    assert verify_projection(4, 8).passed


def test_projection_compares_removed_types_and_both_directions(monkeypatch):
    """A chain with one removed type cleared, or with one move too many, fails."""
    mc = build_chain(3)
    i, j = next((i, j) for i, row in enumerate(mc.moves) for j, m in enumerate(row) if m.removed)
    cleared = [list(row) for row in mc.moves]
    cleared[i][j] = dataclasses.replace(cleared[i][j], removed=None)
    extra = [list(row) for row in mc.moves]
    stray = mc.moves[1][0]
    assert stray.column not in {m.column for m in mc.moves[0]}
    extra[0].append(stray)
    for moves, b, unprojected, unmatched in (
        (cleared, mc.states[i], [mc.moves[i][j]], [cleared[i][j]]),
        (extra, EMPTY, [], [stray]),
    ):
        chain = MarkovChain(mc.k, mc.states, moves)
        monkeypatch.setattr(chain_mod, "build_chain", lambda k: chain)
        report = verify_projection(3, 10)
        assert not report.passed
        assert report.witness == {
            "B": b,
            "unprojected": list(map(repr, unprojected)),
            "unmatched": list(map(repr, unmatched)),
        }


def test_reconstruct_core():
    assert reconstruct_core((3, 1), (0, 0, 0, 0), 4) == bounded_to_core((3, 1), 4)
    assert reconstruct_core((3, 1), (0, 0, 0, 1), 4) == (7, 3, 1)
    with pytest.raises(MemoryError):
        reconstruct_core(EMPTY, (10_000_000, 0, 0), 3, max_parts=100)


def test_initial_frontiers_are_empty_core():
    for k in (2, 3, 4):
        assert core_parts_from_frontiers(initial_frontiers(k), k) == EMPTY


def test_frontier_tracking_matches_explicit_reconstruction():
    for k, n, seed in ((3, 200, 1), (3, 357, 9), (4, 400, 2), (5, 250, 3)):
        result = run_simulation(SimConfig(k=k, n=n, seed=seed))
        reduced = result.final_state
        explicit = reconstruct_core(reduced, result.ledger, k)
        assert core_parts_from_frontiers(result.frontiers, k) == explicit


def test_boundary_from_frontiers_lies_on_staircase():
    k, n = 3, 150
    result = run_simulation(SimConfig(k=k, n=n, seed=4, boundary_samples=400))
    core = reconstruct_core(result.final_state, result.ledger, k)
    heights = [0] * (core[0] + 1) if core else [0]
    for x in range(core[0] + 1):
        heights[x] = sum(1 for p in core if p > x)
    for x_scaled, y_scaled in result.boundary:
        x = round(x_scaled * n)
        y = round(y_scaled * n)
        # a staircase point (x, y): y rows extend strictly past x
        assert 0 <= x <= core[0]
        assert heights[x] <= y <= (heights[x - 1] if x else len(core))


def reference_boundary(frontiers, k, n, samples):
    """``boundary_from_frontiers`` with positions always from ``range(samples)``."""
    r = k + 1
    top, bottom = max(frontiers), min(frontiers)

    def above(x):
        return sum((g - x + r - 1) // r for g in frontiers if g > x)

    first_vac = next(p for p in range(bottom + 1, bottom + r + 2) if frontiers[p % r] < p)
    rows = above(first_vac - 1)
    base = above(bottom)
    positions = sorted({bottom + (top - bottom) * t // (samples - 1) for t in range(samples)})
    pts = []
    for p in positions:
        pts.append((((p - bottom) - (base - above(p))) / n, min(above(p), rows) / n))
    return sorted(set(pts))


def test_boundary_samples_past_the_spread_cost_nothing_more():
    """Past top - bottom samples every position is hit, whatever ``samples`` is."""
    k, n = 3, 1000
    frontiers = run_simulation(SimConfig(k=k, n=n, seed=5)).frontiers
    spread = max(frontiers) - min(frontiers)
    assert spread > 20
    every = simulate.boundary_from_frontiers(frontiers, k, n, spread + 1)
    assert simulate.boundary_from_frontiers(frontiers, k, n, 10**12) == every
    for samples in (2, 3, 7, spread // 2, spread - 1, spread, spread + 1, spread + 2, 3 * spread, 10**4):
        expected = reference_boundary(frontiers, k, n, samples)
        assert simulate.boundary_from_frontiers(frontiers, k, n, samples) == expected


def test_determinism_and_seed_sensitivity():
    a = run_simulation(SimConfig(k=3, n=5000, seed=42, checkpoint_every=1000))
    b = run_simulation(SimConfig(k=3, n=5000, seed=42, checkpoint_every=1000))
    c = run_simulation(SimConfig(k=3, n=5000, seed=43))
    assert np.array_equal(a.occupancy, b.occupancy)
    assert a.ledger == b.ledger
    assert a.frontiers == b.frontiers
    assert a.checkpoints == b.checkpoints
    assert boundary_csv(a.boundary) == boundary_csv(b.boundary)
    assert not np.array_equal(a.occupancy, c.occupancy)


def test_occupancy_tracks_pi_roughly():
    mc = build_chain(3)
    pi = stationary(mc)
    result = run_simulation(SimConfig(k=3, n=50_000, seed=7))
    freq = result.occupancy / result.config.n
    for i in range(6):
        p = float(pi.values[i])
        se = math.sqrt(p * (1 - p) / result.config.n)
        assert abs(freq[i] - p) < 6 * se


def exact_rho(k):
    mc = build_chain(k)
    return rho_vector(mc, stationary(mc))


def staircase(core):
    """Every lattice point on the boundary of a diagram: (column x, height y)."""
    points = []
    for x in range((core[0] if core else 0) + 1):
        low = sum(1 for p in core if p > x)
        high = sum(1 for p in core if p >= x)
        points.extend((x, y) for y in range(low, high + 1))
    return points


def test_limit_curve_vertices():
    rho = [Fraction(1, 10)] * 3
    assert limit_curve_vertices(rho) == [
        (Fraction(x, 10), Fraction(y, 10)) for x, y in [(0, 6), (1, 3), (3, 1), (6, 0)]
    ]
    assert limit_curve_vertices([1, 2]) == [(0, 4), (1, 2), (5, 0)]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_equal_rates_give_the_binomial_vertices(k):
    rho = [Fraction(1, math.comb(k + 2, 3))] * k
    assert limit_curve_vertices(rho) == [
        (rho[0] * math.comb(j, 2), rho[0] * math.comb(k + 2 - j, 2)) for j in range(1, k + 2)
    ]


def test_limit_curve_conjugation_symmetry():
    for rho in (
        [Fraction(3, 7), Fraction(1, 5)],
        [Fraction(1, 2), Fraction(2, 9), Fraction(5, 3)],
        [Fraction(i, 11 + i) for i in range(1, 6)],
    ):
        mirrored = [(y, x) for x, y in reversed(limit_curve_vertices(rho))]
        assert limit_curve_vertices(rho[::-1]) == mirrored


@pytest.mark.parametrize("ledger", [(50, 200, 120), (30, 90, 60, 150), (40, 10, 80, 20, 60)])
@pytest.mark.parametrize("scale", [1, 4])
def test_ledgered_core_lies_on_the_curve_of_its_rates(ledger, scale):
    """Every staircase point of the core built from a ledger lies within 3/n
    of the curve for rho = ledger / n; with the axes swapped it does not."""
    k = len(ledger)
    ledger = [c * scale for c in ledger]
    n = sum(c * rectangle_area(i, k) for i, c in enumerate(ledger, start=1))
    rho = [Fraction(c, n) for c in ledger]
    points = [(x / n, y / n) for x, y in staircase(reconstruct_core(EMPTY, ledger, k))]
    sup, mean_sq = compare_to_limit(points, rho)
    assert sup <= 3 / n
    assert mean_sq <= sup**2
    assert compare_to_limit([(y, x) for x, y in points], rho)[0] > 0.05


def test_compare_to_limit_symmetry():
    pts = [(0.0, 0.5), (0.1, 0.25), (0.3, 0.1), (0.5, 0.0)]
    swapped = [(y, x) for x, y in pts]
    for rho in ([Fraction(1, 10)] * 3, [Fraction(1, 10), Fraction(1, 4), Fraction(1, 6)]):
        sup1, ms1 = compare_to_limit(pts, rho)
        sup2, ms2 = compare_to_limit(swapped, rho[::-1])
        assert sup1 == pytest.approx(sup2, rel=1e-12)
        assert ms1 == pytest.approx(ms2, rel=1e-12)


def test_simulate_makes_one_polyline_pass(tmp_path, monkeypatch, capsys):
    from coregrowth import cli

    calls = []
    distances = simulate._distances_to_polyline
    monkeypatch.setattr(
        simulate, "_distances_to_polyline", lambda *a: calls.append(1) or distances(*a)
    )
    outputs = {key: str(tmp_path / key) for key in simulate.OUTPUT_KEYS}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps({"k": 3, "n": 5000, "seed": 2, "outputs": outputs}))
    assert cli.main(["simulate", "--config", str(cpath)]) == 0
    assert len(calls) == 1
    assert "rho=1/10,1/10,1/10 " in capsys.readouterr().out
    report = json.loads((tmp_path / "report_json").read_text())
    assert report["rho"] == ["1/10"] * 3 and "gamma" not in report
    assert "rho=1/10,1/10,1/10" in (tmp_path / "svg").read_text()


def test_deviation_shrinks_with_n():
    rho = exact_rho(3)
    devs = []
    for n in (2_000, 20_000, 200_000):
        result = run_simulation(SimConfig(k=3, n=n, seed=12))
        devs.append(compare_to_limit(result.boundary, rho)[0])
    assert devs[2] < devs[0]


def test_two_seeds_agree_at_scale():
    a = run_simulation(SimConfig(k=3, n=60_000, seed=1, boundary_samples=300))
    b = run_simulation(SimConfig(k=3, n=60_000, seed=2, boundary_samples=300))
    xs = np.linspace(0.0, min(a.boundary[-1][0], b.boundary[-1][0]), 50)

    def interp(pts, x):
        arr = np.array(pts)
        return np.interp(x, arr[:, 0], arr[:, 1])

    gap = np.max(np.abs(interp(a.boundary, xs) - interp(b.boundary, xs)))
    assert gap < 0.05


def test_output_files(tmp_path):
    cfg = SimConfig(
        k=3,
        n=2000,
        seed=3,
        outputs={
            "boundary_csv": str(tmp_path / "b.csv"),
            "rho_csv": str(tmp_path / "r.csv"),
            "occupancy_csv": str(tmp_path / "o.csv"),
            "svg": str(tmp_path / "s.svg"),
            "report_json": str(tmp_path / "rep.json"),
        },
    )
    result = run_simulation(cfg)
    mc = build_chain(3)
    pi = stationary(mc)
    rho = rho_vector(mc, pi)
    written = write_outputs(result, pi, rho, compare_to_limit(result.boundary, rho))
    assert len(written) == 5
    assert (tmp_path / "b.csv").read_text().startswith("x,y")
    assert "conjectured" in (tmp_path / "r.csv").read_text()
    assert "pi" in (tmp_path / "o.csv").read_text().splitlines()[0]
    assert (tmp_path / "s.svg").read_text().startswith("<svg")
    assert rho_csv(result).count("\n") == 4
    assert occupancy_csv(result, pi).count("\n") == 7
    assert overlay_svg(result, rho, (0.0, 0.0)).endswith("</svg>\n")


def test_checkpoints_reach_the_report(tmp_path):
    """checkpoint_every > 0 adds the checkpoints to report_json; 0 leaves it as it was."""
    mc = build_chain(3)
    pi = stationary(mc)
    rho = rho_vector(mc, pi)
    payloads = []
    for every in (0, 250):
        path = tmp_path / f"rep{every}.json"
        cfg = SimConfig(k=3, n=1000, seed=3, checkpoint_every=every, outputs={"report_json": str(path)})
        result = run_simulation(cfg)
        write_outputs(result, pi, rho, compare_to_limit(result.boundary, rho))
        payloads.append(json.loads(path.read_text()))
    plain, checked = payloads
    assert "checkpoints" not in plain
    assert checked.pop("checkpoints") == [
        [step, state, list(ledger)] for step, state, ledger in result.checkpoints
    ]
    assert [c[0] for c in result.checkpoints] == [250, 500, 750, 1000]
    assert checked == plain


def test_occupancy_matches_pi_k4_long_run():
    mc = build_chain(4)
    pi = stationary(mc)
    result = run_simulation(SimConfig(k=4, n=1_000_000, seed=5))
    freq = result.occupancy / result.config.n
    for i in range(24):
        p = float(pi.values[i])
        se = math.sqrt(p * (1 - p) / result.config.n)
        assert abs(freq[i] - p) <= 3 * se


def test_conservation_check_survives_optimize_flag():
    script = (
        "from coregrowth.reporting import InvariantError\n"
        "from coregrowth.simulate import _assert_conserved\n"
        "try:\n"
        "    _assert_conserved(10, 1, [1, 0, 0], 3)\n"
        "except InvariantError as exc:\n"
        "    print('raised:', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: box conservation violated: 4 != 10")
