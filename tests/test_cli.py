import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coregrowth.cli import build_parser, guard_error, main, parse_partition


def run_cli(*argv):
    return main(list(argv))


def test_parse_partition():
    assert parse_partition("2,1,1") == (2, 1, 1)
    assert parse_partition("[4, 3, 1]") == (4, 3, 1)
    assert parse_partition("") == ()


def test_dims_command(capsys):
    assert run_cli("dims", "--k", "3", "2,1,1") == 0
    out = capsys.readouterr().out
    assert "6" in out and "sandwich" in out.splitlines()[0]


def test_dims_rejects_unbounded(capsys):
    assert run_cli("dims", "--k", "3", "4,1") == 2
    assert "error" in capsys.readouterr().err


def test_dims_all_reduced(capsys):
    assert run_cli("dims", "--k", "3", "--all-reduced") == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 7


def test_chain_command(tmp_path, capsys):
    jpath = tmp_path / "chain.json"
    cpath = tmp_path / "pi.csv"
    code = run_cli("chain", "--k", "3", "--json", str(jpath), "--csv", str(cpath))
    out = capsys.readouterr().out
    assert code == 0
    assert "lcd(pi) = 20" in out
    payload = json.loads(jpath.read_text())
    assert payload["lcd"] == 20
    assert cpath.read_text().startswith("index,parts")


def test_chain_guard(capsys):
    assert run_cli("chain", "--k", "9") == 2
    assert "guard" in capsys.readouterr().err


def test_force_lifts_the_k_guard(capsys):
    parser = build_parser()
    for argv in (["chain"], ["verify"], ["verify", "--suite", "theorems"], ["simulate", "--n", "10"]):
        args = parser.parse_args([*argv, "--k", "7"])
        assert "guarded range 2..6" in guard_error(args.command, args.k, args.force)
        args = parser.parse_args([*argv, "--k", "7", "--force"])
        assert guard_error(args.command, args.k, args.force) is None
        args = parser.parse_args([*argv, "--k", "6"])
        assert guard_error(args.command, args.k, args.force) is None
    assert guard_error("dims", 9, False) is None
    assert guard_error("tasep", 9, False) is None
    # the appendix suite builds no chain, so it needs no --force
    assert run_cli("verify", "--k", "7", "--suite", "appendix") == 0
    assert "5 checks, 5 passed" in capsys.readouterr().out


def test_tasep_command(capsys):
    assert run_cli("tasep", "--k", "4", "--word", "1-4-2-3-5") == 0
    out = capsys.readouterr().out
    assert "(3,1)" in out
    assert run_cli("tasep", "--k", "5", "--state", "3,3,1,1") == 0
    out = capsys.readouterr().out
    assert "4-2-3-5-1-6" in out
    assert run_cli("tasep", "--k", "3", "--state", "1") == 0
    out = capsys.readouterr().out
    assert "2-3-1-4" in out


def test_tasep_malformed(capsys):
    assert run_cli("tasep", "--k", "4", "--word", "1-1-2-3-5") == 2
    assert run_cli("tasep", "--k", "4", "--word", "1-2-3") == 2
    assert run_cli("tasep", "--k", "3") == 2


def test_verify_all_small(capsys, tmp_path):
    jpath = tmp_path / "report.json"
    assert run_cli("verify", "--k", "2", "--suite", "all", "--json", str(jpath)) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "hard failures" in out
    payload = json.loads(jpath.read_text())
    assert payload["command"] == "verify"
    assert all(v["status"] == "PASS" for v in payload["verifiers"])


def test_simulate_command(tmp_path, capsys):
    cfg = {
        "k": 3,
        "n": 3000,
        "seed": 1,
        "outputs": {"boundary_csv": str(tmp_path / "b.csv"), "svg": str(tmp_path / "o.svg")},
    }
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cpath)) == 0
    out = capsys.readouterr().out
    assert "rho_hat" in out
    first = (tmp_path / "b.csv").read_text()
    assert run_cli("simulate", "--config", str(cpath)) == 0
    capsys.readouterr()
    assert (tmp_path / "b.csv").read_text() == first  # same seed, same bytes


def test_simulate_bad_config(tmp_path, capsys):
    cpath = tmp_path / "bad.json"
    cpath.write_text('{"k": 3}')
    assert run_cli("simulate", "--config", str(cpath)) == 2
    assert run_cli("simulate") == 2
    cpath.write_text('{"k": 8, "n": 10}')
    assert run_cli("simulate", "--config", str(cpath)) == 2
    assert "guarded range" in capsys.readouterr().err


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run_cli("--cache", str(cache), "dims", "--k", "3", "2,1") == 0
    assert (cache / "dimtable_k3.json").exists()
    assert run_cli("--cache", str(cache), "dims", "--k", "3", "2,1") == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli("bogus-command")
    assert exc.value.code == 2


def test_verify_theorems_suite_k3(capsys):
    assert run_cli("verify", "--k", "3", "--suite", "theorems") == 0
    out = capsys.readouterr().out
    assert "[PASS] (theorem)" in out and "0 hard failures" in out


def test_simulate_flags_are_validated(capsys):
    assert run_cli("simulate", "--k", "2", "--n", "0") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n must be positive" in err
    assert run_cli("simulate", "--k", "1", "--n", "10") == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "content, message",
    [
        (lambda good: good[: len(good) // 2], "not valid JSON"),
        (lambda good: good.replace("coregrowth.dimtable.v1", "other.v9"), "format"),
        (lambda good: good.replace('"k": 3', '"k": 4'), "k=4"),
        (lambda good: '{"format": "coregrowth.dimtable.v1", "k": 3}', "max_size"),
        (lambda good: good.replace('"2,1": "2", ', ""), "lacks (2, 1)"),
    ],
    ids=["truncated", "wrong-format", "wrong-k", "missing-keys", "missing-value"],
)
def test_bad_cache_file_is_a_usage_error(tmp_path, capsys, content, message):
    cache = tmp_path / "cache"
    assert run_cli("--cache", str(cache), "dims", "--k", "3", "2,1") == 0
    path = cache / "dimtable_k3.json"
    path.write_text(content(path.read_text()))
    capsys.readouterr()
    assert run_cli("--cache", str(cache), "dims", "--k", "3", "2,1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and message in err


def test_cache_file_is_replaced_whole(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run_cli("--cache", str(cache), "dims", "--k", "3", "2,1") == 0
    assert run_cli("--cache", str(cache), "chain", "--k", "3") == 0
    assert [p.name for p in cache.iterdir()] == ["dimtable_k3.json"]
    assert json.loads((cache / "dimtable_k3.json").read_text())["max_size"] >= 5


def test_unwritable_cache_is_a_usage_error(tmp_path, capsys):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    assert run_cli("--cache", str(not_a_dir), "dims", "--k", "3", "2,1") == 2
    assert capsys.readouterr().err.startswith("error: cache file")


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_limits_blas_threads_unless_set(preset, expected):
    script = (
        "import os\n"
        "from coregrowth.cli import main\n"
        "assert main(['tasep', '--k', '2', '--word', '1-2-3']) == 0\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == expected


def test_simulate_builds_the_chain_twice(tmp_path, capsys, monkeypatch):
    """The run and the pi solve build the chain; the occupancy CSV does not."""
    from coregrowth import chain as chain_mod

    built = []
    build = chain_mod.build_chain
    monkeypatch.setattr(chain_mod, "build_chain", lambda k: built.append(k) or build(k))
    names = ("boundary_csv", "rho_csv", "occupancy_csv", "svg", "report_json")
    cfg = {"k": 3, "n": 2000, "seed": 1, "outputs": {key: str(tmp_path / key) for key in names}}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cpath)) == 0
    assert built == [3, 3]
    assert len((tmp_path / "occupancy_csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--k", "1"],
        ["chain", "--k", "1", "--force"],
        ["dims", "--k", "-1", "--all-reduced"],
        ["tasep", "--k", "3", "--state", "9"],
        ["simulate", "--k", "3", "--n", "10", "--seed", "-1"],
        ["dims", "--k", "0"],
        ["tasep", "--k", "0", "--word", "1"],
        ["verify", "--k", "0", "--suite", "appendix"],
        ["verify", "--k", "8"],
        ["verify", "--k", "8", "--suite", "conjectures"],
        ["simulate", "--k", "8", "--n", "10"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_usage_error(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "coregrowth.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
