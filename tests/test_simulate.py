import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coregrowth import simulate
from coregrowth.chain import MarkovChain, build_chain, stationary
from coregrowth.partitions import EMPTY, bounded_to_core, factorial_index
from coregrowth.reporting import InvariantError
from coregrowth.simulate import (
    BLOCK,
    ConfigError,
    SimConfig,
    boundary_csv,
    compare_to_limit,
    core_parts_from_frontiers,
    initial_frontiers,
    limit_curve_vertices,
    occupancy_csv,
    overlay_svg,
    reconstruct_core,
    rho_csv,
    run_simulation,
    spawn_seeds,
    verify_projection,
    write_outputs,
)


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
    table = simulate._sampling_tables(build_chain(k))
    assert len(table.reduced) == len(set(table.arrangements)) == math.factorial(k + 1)
    assert all(sorted(arr) == list(range(k + 1)) for arr in table.arrangements)
    assert len(table.base) == len(table.cums) == len(table.reduced)
    assert len(table.nxt) == len(table.moves)


def test_broken_label_correspondence_raises(monkeypatch):
    """Swapping the grown columns of two moves keeps box conservation but
    gives one label arrangement two reduced states."""
    mc = build_chain(3)
    moves = [list(row) for row in mc.moves]
    first, second = moves[1][:2]
    moves[1][0] = dataclasses.replace(first, column=second.column)
    moves[1][1] = dataclasses.replace(second, column=first.column)
    broken = MarkovChain(mc.k, mc.states, moves, mc.matrix)
    monkeypatch.setattr(simulate.chain_mod, "build_chain", lambda k: broken)
    with pytest.raises(InvariantError, match="not a function of the label arrangement"):
        run_simulation(SimConfig(k=3, n=10, seed=1))


def test_config_parsing():
    cfg = SimConfig.from_json('{"k": 3, "n": 100, "seed": 5}')
    assert (cfg.k, cfg.n, cfg.seed) == (3, 100, 5)
    with pytest.raises(ConfigError):
        SimConfig.from_json('{"k": 3}')
    with pytest.raises(ConfigError):
        SimConfig.from_json('{"k": 1, "n": 10}')
    with pytest.raises(ConfigError):
        SimConfig.from_json('{"k": 3, "n": 10, "outputs": {"bogus": "x"}}')
    with pytest.raises(ConfigError):
        SimConfig.from_json("not json")
    with pytest.raises(ConfigError):
        SimConfig.from_json('{"k": "three", "n": 10}')
    with pytest.raises(ConfigError):
        SimConfig.from_json('{"k": 3, "n": 10, "outputs": {"svg": 5}}')
    with pytest.raises(ConfigError):
        SimConfig(k=2, n=0).validate()
    with pytest.raises(ConfigError):
        SimConfig.from_json('{"k": 3, "n": 10, "seed": -1}')
    # a float, bool or string integer field is refused, never coerced
    for value in (3.0, True, "3"):
        for key in ("k", "n", "seed", "checkpoint_every", "boundary_samples"):
            obj = {"k": 3, "n": 10, key: value}
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                SimConfig.from_dict(obj)
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                SimConfig(**obj).validate()
    with pytest.raises(ConfigError, match="outputs must map"):
        SimConfig.from_json('{"k": 3, "n": 10, "outputs": 5}')


def test_projection_consistency():
    assert verify_projection(3, 10).passed
    assert verify_projection(4, 8).passed


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
    freq = result.occupancy / result.steps
    for i in range(6):
        p = float(pi.values[i])
        se = math.sqrt(p * (1 - p) / result.steps)
        assert abs(freq[i] - p) < 6 * se


def test_limit_curve_vertices():
    assert limit_curve_vertices(4) == [(0, 6), (1, 3), (3, 1), (6, 0)]


def test_compare_to_limit_symmetry():
    pts = [(0.0, 0.5), (0.1, 0.25), (0.3, 0.1), (0.5, 0.0)]
    swapped = [(y, x) for x, y in pts]
    g1, sup1, ms1 = compare_to_limit(pts, 3)
    g2, sup2, ms2 = compare_to_limit(swapped, 3)
    assert g1 == pytest.approx(g2, rel=1e-6)
    assert sup1 == pytest.approx(sup2, rel=1e-6)
    assert ms1 == pytest.approx(ms2, rel=1e-6)


def reference_fit(boundary_pts, k):
    """``compare_to_limit`` with two objective calls per golden-section step."""
    pts = np.asarray(boundary_pts, dtype=float)
    base = np.asarray(limit_curve_vertices(k + 1), dtype=float)

    def objective(gamma: float) -> float:
        return float(np.mean(simulate._distances_to_polyline(pts, gamma * base) ** 2))

    extent = max(pts[:, 0].max(), pts[:, 1].max(), 1e-12)
    guess = extent / math.comb(k + 1, 2)
    lo, hi = guess / 4.0, guess * 4.0
    grid = np.linspace(lo, hi, 80)
    gamma = float(grid[int(np.argmin([objective(g) for g in grid]))])
    step = (hi - lo) / 79.0
    a, b = gamma - step, gamma + step
    for _ in range(70):  # golden-section refinement
        m1 = b - (b - a) * 0.6180339887498949
        m2 = a + (b - a) * 0.6180339887498949
        if objective(m1) <= objective(m2):
            b = m2
        else:
            a = m1
    gamma = (a + b) / 2.0
    dist = simulate._distances_to_polyline(pts, gamma * base)
    return gamma, float(dist.max()), float(np.mean(dist**2))


@pytest.mark.parametrize("k, n, seed", [(3, 30_000, 1), (3, 30_000, 2), (5, 20_000, 3)])
def test_fit_evaluates_one_point_per_golden_step(monkeypatch, k, n, seed):
    boundary = run_simulation(SimConfig(k=k, n=n, seed=seed)).boundary
    reference = reference_fit(boundary, k)
    calls = []
    distances = simulate._distances_to_polyline
    monkeypatch.setattr(
        simulate, "_distances_to_polyline", lambda *a: calls.append(1) or distances(*a)
    )
    gamma, sup, mean_sq = compare_to_limit(boundary, k)
    assert len(calls) == 80 + 2 + 70 + 1
    assert gamma == pytest.approx(reference[0], rel=1e-9)
    assert sup == pytest.approx(reference[1], rel=1e-6)
    assert mean_sq == pytest.approx(reference[2], rel=1e-9)


def test_deviation_shrinks_with_n():
    devs = []
    for n in (2_000, 20_000, 200_000):
        result = run_simulation(SimConfig(k=3, n=n, seed=12))
        devs.append(result.sup_deviation)
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


def test_spawn_seeds_distinct():
    seeds = spawn_seeds(0, 4)
    assert len(set(seeds)) == 4


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
    pi = stationary(build_chain(3))
    written = write_outputs(result, pi)
    assert len(written) == 5
    assert (tmp_path / "b.csv").read_text().startswith("x,y")
    assert "conjectured" in (tmp_path / "r.csv").read_text()
    assert "pi" in (tmp_path / "o.csv").read_text().splitlines()[0]
    assert (tmp_path / "s.svg").read_text().startswith("<svg")
    assert rho_csv(result).count("\n") == 4
    assert occupancy_csv(result, pi).count("\n") == 7
    assert overlay_svg(result).endswith("</svg>\n")


def test_checkpoints_reach_the_report(tmp_path):
    """checkpoint_every > 0 adds the checkpoints to report_json; 0 leaves it as it was."""
    pi = stationary(build_chain(3))
    payloads = []
    for every in (0, 250):
        path = tmp_path / f"rep{every}.json"
        cfg = SimConfig(k=3, n=1000, seed=3, checkpoint_every=every, outputs={"report_json": str(path)})
        result = run_simulation(cfg)
        write_outputs(result, pi)
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
    freq = result.occupancy / result.steps
    for i in range(24):
        p = float(pi.values[i])
        se = math.sqrt(p * (1 - p) / result.steps)
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
