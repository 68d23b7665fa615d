"""Tests of the benchmark itself, on the smoke-sized workloads.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import EXPECTED, check_simulation, workload_table  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = workload_table(smoke=True)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "7", "--seconds", "1", "--smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_have_their_units():
    result = result_of(bench("--workload", "sim-k3", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["exact-k6", "sim-k5"])
def test_every_per_layer_metric_is_emitted(workload):
    result = result_of(bench("--workload", workload, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    # Layer self times account for the traced run's wall time, up to
    # interpreter start-up, tracer installation and exit.
    assert -0.01 < metrics["trace.unattributed_s"] < 0.3
    assert metrics["chain.build_chain.calls"] == 2
    assert metrics["dimensions.contains.calls"] > metrics["dimensions.contains.hits"] > 0


def traced_child(tmp_path, script: str) -> dict:
    """Run ``script`` in a fresh interpreter with the tracer importable; return its JSON output."""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**run.child_env(), "PYTHONPATH": f"{ROOT / 'src'}:{HERE}"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_contains_counter_is_installed_at_every_binding_site(tmp_path):
    out = traced_child(
        tmp_path,
        "import json, coregrowth.cli, coregrowth.verify_appendix, coregrowth.dimensions as d\n"
        "from tracer import Tracer\n"
        "t = Tracer('counters').install()\n"
        "d.dimension_table(3, 4)\n"
        "print(json.dumps({'sites': t.sites, 'metrics': t.metrics(0.0), 'spans': Tracer('spans').install().sites}))\n",
    )
    contains_sites = {k: n for k, n in out["sites"].items() if k.endswith(".contains")}
    assert contains_sites.keys() >= {"posets.contains", "dimensions.contains"}
    assert sum(contains_sites.values()) >= 2
    assert out["metrics"]["dimensions.contains.calls"]["value"] > 0
    assert "chain.build_chain" not in out["sites"]
    # Span-timed runs carry no counters; bounded_to_core is bound in
    # partitions and imported by name elsewhere.
    assert not any(k.endswith(".contains") for k in out["spans"])
    assert out["spans"]["partitions.bounded_to_core"] >= 2


def test_missing_probe_is_reported_absent(tmp_path):
    out = traced_child(
        tmp_path,
        "import json, coregrowth.cli, coregrowth.verify_appendix, coregrowth.chain as c\n"
        "from tracer import Tracer\n"
        "del c._solve_fraction_gauss\n"
        "t = Tracer('spans').install()\n"
        "print(json.dumps({'absent': t.absent, 'metrics': sorted(t.metrics(0.0))}))\n",
    )
    assert out["absent"] == ["chain._solve_fraction_gauss"]
    assert "chain.gauss.s" not in out["metrics"] and "chain.crt.s" in out["metrics"]


def run_cli(tmp_path, capsys, workload, seed=7):
    import coregrowth.cli

    argv = workload.argv(tmp_path, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        assert coregrowth.cli.main(argv) == 0
    return capsys.readouterr().out


def test_tampered_pi_fails_the_check(tmp_path, capsys):
    workload = SMOKE["exact-k6"]
    stdout = run_cli(tmp_path, capsys, workload)
    assert workload.check(tmp_path, stdout, 7) == ([], None)

    csv_path = tmp_path / "pi.csv"
    rows = csv_path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[2] = str(int(fields[2]) + 1)  # numerator of state 0
    csv_path.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
    problems, _ = workload.check(tmp_path, stdout, 7)
    assert problems == ["stationary vector differs from the recorded digest"]

    wrong_lcd = stdout.replace(f"lcd(pi) = {EXPECTED['3']['lcd']}", "lcd(pi) = 21")
    assert any("lcd" in p for p in workload.check(tmp_path, wrong_lcd, 7)[0])
    flipped = stdout.replace("[PASS] (conjecture) minimum-value", "[FAIL] (conjecture) minimum-value")
    assert any("conjecture verdicts" in p for p in workload.check(tmp_path, flipped, 7)[0])


def test_changed_ledger_fails_the_check(tmp_path, capsys):
    workload = SMOKE["sim-k3"]
    run_cli(tmp_path, capsys, workload)
    problems, result = workload.check(tmp_path, "", 7)
    assert problems == []

    def ran(result):
        return run.Run(mode="-", rc=0, wall_s=1.0, setup_s=0.1, peak_rss_mb=30.0, problems=[], result=result)

    ledger, final = result
    same, changed = ran(result), ran(((ledger[0] + 1, *ledger[1:]), final))
    assert run.failures([same, same]) == []
    assert run.failures([same, changed]) == ["run 1: ledger or final state differs from the first run with this seed"]

    report_path = tmp_path / "sim.json"
    report = json.loads(report_path.read_text())
    report["ledger"][0] += 1
    report_path.write_text(json.dumps(report))
    problems, _ = check_simulation(3, workload.n, 7, report_path)
    assert any("boxes after" in p for p in problems)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sim-k3", "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_relative_wall_divides_by_the_reference_time_during_each_run():
    def ran(wall_s, ref_s):
        return run.Run(mode="-", rc=0, wall_s=wall_s, setup_s=0.1, peak_rss_mb=30.0, problems=[], ref_s=ref_s)

    quiet = run.end_to_end([ran(6.0, 0.010), ran(6.2, 0.010), ran(5.0, 0.010)], [0.2])
    # A host 1.5 times slower lengthens the runs and the reference task alike.
    busy = run.end_to_end([ran(9.0, 0.015), ran(9.3, 0.015), ran(7.5, 0.015)], [0.3])
    assert quiet["wall_rel"]["value"] == pytest.approx(600.0)
    assert busy["wall_rel"]["value"] == pytest.approx(600.0)


def test_overhead_is_unresolved_unless_the_pairs_agree():
    assert run.overhead_verdict([9.7]).endswith(": unresolved")
    assert run.overhead_verdict([-1.3, 0.4]).endswith(": unresolved")
    assert run.overhead_verdict([0.30, 0.35, 0.33]).endswith(": resolved")
