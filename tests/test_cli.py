import ast
import contextlib
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coregrowth import cli, dimensions, posets
from coregrowth.cli import build_parser, guard_error, main, parse_partition
from coregrowth.reporting import InvariantError, UsageError
from coregrowth.simulate import SimConfig


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*argv):
    return main(list(argv))


def test_parse_partition():
    assert parse_partition("2,1,1") == (2, 1, 1)
    assert parse_partition("2 1 1") == (2, 1, 1)
    assert parse_partition("2, 1") == (2, 1)
    assert parse_partition("[4, 3, 1]") == (4, 3, 1)
    assert parse_partition("") == ()
    assert parse_partition("[]") == ()
    for text in (",,", "2,,1", "2,1,", ",2", "[[2]]", "[2]]", "2 1,1", "[2,x]"):
        with pytest.raises(UsageError, match="cannot parse partition"):
            parse_partition(text)


def test_dims_command(capsys):
    assert run_cli("dims", "--k", "3", "2,1,1") == 0
    out = capsys.readouterr().out
    assert "6" in out and "sandwich" in out.splitlines()[0]


def test_dims_rejects_unbounded(capsys):
    assert run_cli("dims", "--k", "3", "4,1") == 2
    assert "error" in capsys.readouterr().err


def test_dims_of_a_long_partition_keeps_the_stack_flat(capsys, monkeypatch):
    """The weak walk, the levels and the tableaux table need no frame per box or per level.

    The limit leaves about 60 frames for the call, far fewer than a walk
    that recursed once per box or per level would need.
    """
    monkeypatch.setattr(posets, "_LEVELS", {})
    monkeypatch.setattr(posets, "_WEAK_DIMS", {})
    monkeypatch.setattr(dimensions, "_TABLES", {})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        code = run_cli("dims", "--k", "2", ",".join(["1"] * 240))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert "w<=d<=d^(k)" in capsys.readouterr().out


def test_dims_memory_does_not_grow_with_k():
    """One partition's row costs what the partition needs, not what k allows.

    Run under a 512 MB address-space cap; at k = 10^9 one list per level as
    long as k would need 8 GB.
    """
    def dims(k, cap):
        return subprocess.run(
            [sys.executable, "-m", "coregrowth.cli", "dims", "--k", k, "1"],
            env=dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", "")),
            preexec_fn=cap,
            capture_output=True,
            text=True,
            timeout=60,
        )

    capped = dims("1000000000", lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20,) * 2))
    plain = dims("1", None)
    assert capped.returncode == plain.returncode == 0, capped.stderr
    assert capped.stdout == plain.stdout


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
        with pytest.raises(UsageError, match=r"guarded range 2\.\.6"):
            guard_error(args.command, args.k, args.force)
        args = parser.parse_args([*argv, "--k", "7", "--force"])
        assert guard_error(args.command, args.k, args.force) is None
        args = parser.parse_args([*argv, "--k", "6"])
        assert guard_error(args.command, args.k, args.force) is None
    assert guard_error("dims", 9, False) is None
    assert guard_error("tasep", 9, False) is None
    # tasep has no --force, so its refusal offers none
    assert guard_error("tasep", 1558, None) is None
    with pytest.raises(UsageError, match=r"guarded range 1\.\.1558$"):
        guard_error("tasep", 1559, None)
    # dims tabulating all k! reduced states is guarded; one partition is not
    args = parser.parse_args(["dims", "--k", "7", "--all-reduced"])
    with pytest.raises(UsageError, match=r"guarded range 1\.\.6"):
        guard_error("dims --all-reduced", args.k, args.force)
    args = parser.parse_args(["dims", "--k", "7", "--all-reduced", "--force"])
    assert guard_error("dims --all-reduced", args.k, args.force) is None
    assert guard_error("dims --all-reduced", 6, False) is None
    # --force lifts only the upper bound; the appendix suite has only the lower one
    with pytest.raises(UsageError, match="chain needs k >= 2, got k=1"):
        guard_error("chain", 1, True)
    assert guard_error("verify --suite appendix", 9, False) is None
    with pytest.raises(UsageError, match="verify needs k >= 2, got k=1"):
        guard_error("verify --suite appendix", 1, False)
    assert run_cli("dims", "--k", "9", "2,1") == 0
    capsys.readouterr()
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
    # At the bound every factorial index up to 1558! - 1 still prints.
    assert run_cli("tasep", "--k", "1558", "--state", "1") == 0
    assert f"factorial index {math.factorial(1557)}\n" in capsys.readouterr().out


def test_tasep_malformed(capsys):
    assert run_cli("tasep", "--k", "4", "--word", "1-1-2-3-5") == 2
    assert run_cli("tasep", "--k", "4", "--word", "1-2-3") == 2
    assert run_cli("tasep", "--k", "3") == 2
    # an empty word is a word, and an empty piece is not a letter
    for word in ("", "1--2-3-4"):
        capsys.readouterr()
        assert run_cli("tasep", "--k", "3", "--word", word) == 2
        assert capsys.readouterr().err == f"error: not a normalized word: {word!r}\n"


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


def test_failed_check_exits_1(capsys, monkeypatch):
    """A broken sandwich inequality is a failed check: exit 1 and a VIOLATED row."""
    monkeypatch.setattr(cli.dimensions, "hook_dim", lambda lam: -1)
    assert run_cli("dims", "--k", "3", "2,1") == 1
    assert "VIOLATED" in capsys.readouterr().out


def test_a_measure_that_does_not_sum_to_one_is_a_counterexample(capsys, monkeypatch):
    """Weak counts off by one at size 3 fail two theorems; every verdict is still printed."""
    from coregrowth import chain as chain_mod

    count = chain_mod.weak_dim
    monkeypatch.setattr(chain_mod, "weak_dim", lambda lam, k: count(lam, k) + (sum(lam) == 3))
    assert run_cli("chain", "--k", "3") == 1
    verdicts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(verdicts) == 14
    assert [line for line in verdicts if line.startswith("[COUNTEREXAMPLE]")] == [
        "[COUNTEREXAMPLE] (theorem) plancherel-one-step-invariance",
        "[COUNTEREXAMPLE] (theorem) cauchy-normalization",
    ]


def test_equality_violation_fails_after_every_row(capsys, monkeypatch):
    """A wrong d(2,1) breaks the n <= k equality: exit 1, all rows printed."""
    strong_dim = cli.dimensions.strong_dim_tableaux

    def wrong_at_21(lam, k):
        return 3 if lam == (2, 1) else strong_dim(lam, k)

    monkeypatch.setattr(cli.dimensions, "strong_dim_tableaux", wrong_at_21)
    assert run_cli("dims", "--k", "3", "2,1") == 1
    assert "(equality VIOLATED)" in capsys.readouterr().out
    assert run_cli("dims", "--k", "3", "--all-reduced") == 1
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 6
    assert [row.split()[0] for row in rows if "VIOLATED" in row] == ["(2,1)"]
    assert rows[-1].split()[0] == "(2,1,1)"


def test_there_is_no_dimension_table_cache(tmp_path, capsys, monkeypatch):
    """``--cache`` is not a flag, and ``COREGROWTH_CACHE`` is not read."""
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        run_cli("--cache", str(cache), "dims", "--k", "3", "2,1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" in err
    assert not cache.exists()
    cache.write_text("not a table")
    monkeypatch.setenv("COREGROWTH_CACHE", str(cache))
    assert run_cli("chain", "--k", "3") == 0
    assert cache.read_text() == "not a table"


@pytest.mark.parametrize(
    "before, named",
    [(["--cache", "DIR"], "--cache"), (["--cache=DIR"], "--cache=DIR"), (["--bogus"], "--bogus")],
)
def test_unknown_option_before_the_command_is_named(before, named, capsys):
    """argparse would read the word after an unknown leading option as the command."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*before, "dims", "--k", "3", "2,1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"coregrowth: error: unrecognized arguments: {named}"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_main_limits_blas_threads_unless_set(preset, expected):
    script = (
        "import os\n"
        "from coregrowth.cli import main\n"
        "assert main(['tasep', '--k', '2', '--word', '1-2-3']) == 0\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == expected


def test_importing_the_cli_leaves_numpy_unloaded():
    """Commands that need no numpy start without it.  perfbench's ``setup_s``,
    spawn to ``coregrowth.cli`` imported, times this import on every workload."""
    script = "import sys\nimport coregrowth.cli\nprint('numpy' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_the_exact_commands_run_without_numpy():
    """``chain`` and ``verify`` certify the closed-form pi, and only the CRT fallback needs numpy."""
    script = (
        "import contextlib, io, sys\n"
        "from coregrowth.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['chain', '--k', '4']), main(['verify', '--k', '3', '--suite', 'all'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] False\n"


def test_tasep_bound_is_the_last_k_whose_indices_print():
    for digits in (1, 2, 24, 25, 26, 640, 641, 1000, 4300, 20000):
        k = cli._most_printable_k(digits)
        assert math.factorial(k) < 10**digits <= math.factorial(k + 1), digits
    assert cli._most_printable_k(4300) == cli.MOST_K["tasep"] == 1558
    assert cli._most_printable_k(0) is None


def test_tasep_bound_follows_the_int_string_limit():
    """Under a lower digit limit, a factorial index too long to print is refused up front."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env["PYTHONINTMAXSTRDIGITS"] = "640"
    argv = [sys.executable, "-m", "coregrowth.cli", "tasep", "--k"]
    proc = subprocess.run(
        [*argv, "500", "--state", "1"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: k=500 outside the guarded range 1..310\n"
    # 310 is the largest k whose index k! - 1 has at most 640 digits
    proc = subprocess.run(
        [*argv, "310", "--state", "1"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert f"factorial index {math.factorial(309)}\n" in proc.stdout


def test_simulate_builds_the_chain_twice(tmp_path, capsys, monkeypatch):
    """The run and the pi solve each call ``build_chain``, and get the one memoised
    chain; the occupancy CSV calls it not at all."""
    from coregrowth import chain as chain_mod

    built, chains = [], []
    build = chain_mod.build_chain

    def recording(k):
        built.append(k)
        chains.append(build(k))
        return chains[-1]

    monkeypatch.setattr(chain_mod, "build_chain", recording)
    names = ("boundary_csv", "rho_csv", "occupancy_csv", "svg", "report_json")
    cfg = {"k": 3, "n": 2000, "seed": 1, "outputs": {key: str(tmp_path / key) for key in names}}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    assert run_cli("simulate", "--config", str(cpath)) == 0
    assert built == [3, 3]
    assert chains[0] is chains[1]
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
        ["tasep", "--k", "3", "--word", "1-2-3-4", "--state", "1"],
        ["tasep", "--k", "3", "--word", ""],
        ["tasep", "--k", "3", "--word", "1--2-3-4"],
        ["verify", "--k", "0", "--suite", "appendix"],
        ["verify", "--k", "8"],
        ["verify", "--k", "8", "--suite", "conjectures"],
        ["simulate", "--k", "8", "--n", "10"],
        ["dims", "--k", "7", "--all-reduced"],
        ["dims", "--k", "3", "--all-reduced", "2,1"],
        ["dims", "--k", "3", "--all-reduced", ""],
        ["simulate", "--config", "c.json", "--k", "5"],
        ["simulate", "--config", "c.json", "--n", "7"],
        ["simulate", "--config", "c.json", "--seed", "0"],
        ["simulate", "--config", "c.json", "--csv", "x.csv"],
        ["simulate", "--config", "c.json", "--svg", "x.svg"],
        ["simulate", "--config", "c.json", "--k", "5", "--n", "7", "--seed", "9", "--csv", "x.csv"],
        ["dims", "--k", "3", ",,"],
        ["dims", "--k", "3", "2,,1"],
        ["dims", "--k", "3", "[[2]]"],
        ["tasep", "--k", "3", "--state", "2,,1"],
        ["tasep", "--k", "1560", "--state", "1"],
        ["chain", "--k", "3", "--csv", "."],
        ["chain", "--k", "3", "--json", "nodir/c.json"],
        ["chain", "--k", "3", "--csv", ""],
        ["verify", "--k", "3", "--suite", "all", "--json", "nodir/r.json"],
        ["verify", "--k", "3", "--suite", "appendix", "--json", "."],
        ["simulate", "--k", "3", "--n", "100000", "--csv", "nodir/b.csv"],
        ["simulate", "--k", "3", "--n", "100000", "--svg", "."],
        ["simulate", "--config", "o.json"],
    ],
    ids=" ".join,
)
def test_bad_input_is_a_usage_error(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    (tmp_path / "c.json").write_text('{"k": 3, "n": 1000}')  # a config that runs
    (tmp_path / "o.json").write_text('{"k": 3, "n": 100000, "outputs": {"rho_csv": "nodir/r.csv"}}')
    proc = subprocess.run(
        [sys.executable, "-m", "coregrowth.cli", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


# --- argv fuzzing -------------------------------------------------------------

# Each input is a (good, bad) pair of strategies.  A "sane" example draws only
# good values, so that it reaches the command's work; any other example mixes
# good and bad values, so that it exercises the usage checks.
PATH = (st.just("out.txt"), st.sampled_from(["no_such_dir/out.txt", "."]))
K = (st.integers(2, 4), st.sampled_from([-1, 0, 1]))
ARG_K = (K[0].map(str), st.sampled_from(["-1", "0", "1", "x", "", "2.5"]))
PARTITION = (st.sampled_from(["", "1", "2,1", "1 1"]), st.sampled_from(["5,1", "0", "-1", "2,x"]))
N = (st.integers(1, 2000), st.integers(-1, 0))
SEED = (st.integers(0, 5), st.just(-1))
WORDS = {2: "1-2-3", 3: "2-1-3-4", 4: "1-4-2-3-5"}


@st.composite
def cli_input(draw):
    """(argv, text of config.json) for one in-process ``main`` call."""
    sane = draw(st.booleans())

    def pick(pair):
        return draw(pair[0] if sane else st.one_of(*pair))

    def maybe(flag, value=None):
        if draw(st.booleans()):
            argv.extend([flag] if value is None else [flag, pick(value)])

    k = pick(K)
    command = draw(st.sampled_from(["dims", "chain", "verify", "simulate", "tasep"]))
    argv = [command, "--k", str(k) if sane else pick(ARG_K)]
    config = {"k": k, "n": pick(N)}
    if command == "dims":
        if draw(st.booleans()):
            argv.append("--all-reduced")
        else:
            argv.append(pick(PARTITION))
        maybe("--force")
    elif command in ("chain", "verify"):
        if command == "verify":
            suites = st.sampled_from(["theorems", "conjectures", "appendix", "all"])
            maybe("--suite", (suites, st.just("x")))
        else:
            maybe("--csv", PATH)
        maybe("--json", PATH)
        maybe("--force")
    elif command == "simulate":
        if draw(st.booleans()):
            argv[-2:] = ["--config", pick((st.just("config.json"), st.just("missing.json")))]
        else:
            argv += ["--n", str(config["n"])]
        maybe("--seed", (SEED[0].map(str), SEED[1].map(str)))
        maybe("--csv", PATH)
        maybe("--svg", PATH)
        maybe("--force")
        for key, value in (
            ("seed", SEED),
            ("checkpoint_every", (st.integers(0, 700), st.just(-1))),
            ("boundary_samples", (st.integers(2, 50), st.integers(0, 1))),
        ):
            if draw(st.booleans()):
                config[key] = pick(value)
        names = st.sampled_from(sorted(cli.simulate.OUTPUT_KEYS))
        outputs = st.dictionaries(names, PATH[0], max_size=3)
        bad_outputs = st.one_of(
            st.dictionaries(names, st.one_of(PATH[1], st.just(5)), min_size=1, max_size=2),
            st.just({"bogus": "out.txt"}),
            st.just("svg"),
        )
        config["outputs"] = pick((outputs, bad_outputs))
    else:
        if draw(st.booleans()):
            argv += ["--word", WORDS[k] if sane else pick((st.just("1-2-3"), st.just("1-1-2")))]
        else:
            argv += ["--state", pick(PARTITION)]
    text = json.dumps(config)
    if not sane and draw(st.integers(0, 5)) == 0:
        text = draw(st.sampled_from(["", "{", "[1, 2]", '{"k": 3}', text[:-1] + ', "bogus": 1}']))
    return argv, text


@settings(max_examples=150, deadline=None)
@given(cli_input())
def test_fuzzed_argv_exits_0_1_or_2(case):
    """Any argv ends in exit 0 or 2 (argparse's usage exit counts as 2).

    Exit 1 means a theorem or invariant failed, and none fails at k <= 4.
    """
    argv, config = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        # The appendix suite reads nothing from argv but k; test_verify_all_small
        # runs it whole, and at about 1 s a call it would dominate the budget.
        mp.setattr(cli, "appendix_reports", lambda k: [])
        Path("config.json").write_text(config)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()


# --- the input contract -------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    [
        {"k": 3.7, "n": True, "seed": 2.9},
        {"k": "3", "n": 100},
        {"k": 3, "n": 100.0},
        {"k": 3, "n": True},
        {"k": 3, "n": 100, "seed": 2.0},
        {"k": 3, "n": 100, "checkpoint_every": "10"},
        {"k": 3, "n": 100, "boundary_samples": False},
    ],
    ids=json.dumps,
)
def test_config_integers_are_strict(tmp_path, capsys, config):
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(config))
    assert run_cli("simulate", "--config", str(cpath)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and "must be an integer" in line


@pytest.mark.parametrize("raw", [b"\xff", b'{"k": 3, "n": 10, "seed": "\xe9"}'], ids=["0xff", "latin-1"])
def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, raw):
    cpath = tmp_path / "run.json"
    cpath.write_bytes(raw)
    assert run_cli("simulate", "--config", str(cpath)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and "UTF-8" in line


def test_flags_and_config_build_one_config(tmp_path, monkeypatch):
    """The flag path and the config path go through one constructor."""
    built = []

    class Stop(Exception):
        pass

    def record(config):
        built.append(config)
        raise Stop

    monkeypatch.setattr(cli.simulate, "run_simulation", record)
    text = json.dumps({"k": 3, "n": 100, "seed": 2, "outputs": {"boundary_csv": "b.csv"}})
    cpath = tmp_path / "run.json"
    cpath.write_text(text)
    for argv in (
        ["simulate", "--k", "3", "--n", "100", "--seed", "2", "--csv", "b.csv"],
        ["simulate", "--config", str(cpath)],
    ):
        with pytest.raises(Stop):
            run_cli(*argv)
    assert built[0] == built[1] == SimConfig.from_dict(json.loads(text))
    assert built[0] == SimConfig(k=3, n=100, seed=2, outputs={"boundary_csv": "b.csv"})


def test_exit_1_means_an_invariant_failed(monkeypatch, capsys):
    """Exit 1 is a hard failure; a bug's own exception is not turned into an exit code."""
    word = ["tasep", "--k", "2", "--word", "1-2-3"]

    def fail(exc):
        def raiser(*args):
            raise exc

        return raiser

    monkeypatch.setattr(cli.tasep, "jumps", fail(InvariantError("broken")))
    assert run_cli(*word) == 1
    assert "hard assertion failed: broken" in capsys.readouterr().err
    monkeypatch.setattr(cli.tasep, "jumps", fail(AssertionError("bare")))
    with pytest.raises(AssertionError, match="bare"):
        run_cli(*word)
    monkeypatch.setattr(cli.tasep, "alpha", fail(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        run_cli(*word)


def test_usage_exit_has_one_site():
    """Only ``main`` returns EXIT_USAGE or prints an ``error:`` line."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    sites = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None:
                if ast.unparse(node.value) in ("EXIT_USAGE", "2"):
                    sites.append(("return", func.name))
            if isinstance(node, ast.Constant) and str(node.value).startswith("error:"):
                sites.append(("error:", func.name))
    assert sorted(sites) == [("error:", "main"), ("return", "main")]
