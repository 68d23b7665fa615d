"""coregrowth benchmark: one-shot CLI workloads, each run in a fresh process.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each measured unit is one
``coregrowth.cli.main(argv)`` call in a fresh Python process, started with
``src`` on PYTHONPATH, ``COREGROWTH_CACHE`` unset and a fresh working
directory, because the package's memo tables are process-global and a
repeat inside one process would measure warm caches that no CLI user gets.
Runs are one at a time (a closed loop with one client).  New rounds start
while another fits in S seconds; simulations run at least twice.

--trace 0 reports the end-to-end metrics: wall_rel, setup_s (spawn to
``coregrowth.cli`` imported) and peak_rss_mb (the child's own wait4
rusage), each the median over the run.  wall_rel is a run's wall time,
spawn to exit, over the mean time of the fixed reference task of
reference.py, which this process does every SAMPLE_EVERY_S seconds while
the workload runs.  The benchmark and its children are pinned to one CPU,
so the task shares the workload's CPU and slows down with it when the
host is busy.  Each round is SETUP_PER_ROUND import-only processes and one
workload run, and the run ends with another SETUP_PER_ROUND imports, so
that set-up time is sampled all through the run and not in one burst.

--trace 1 makes one counting run (tracer mode "counters") and then rounds
of an untraced run and a span-timed run (mode "spans").  It reports the
per-layer metrics of tracer.py, medians over the runs that give them, and
prints the tracing overhead: the median of traced minus untraced wall_s
over the pairs, called unresolved when there are fewer than two pairs or
when it is smaller than the range of the pair differences.

The last line of stdout is the JSON result; ``failed`` over ``attempted`` is
the share of runs that exited nonzero or failed an output check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import reference_s  # noqa: E402
from workloads import Workload, workload_table  # noqa: E402

SETUP_PER_ROUND = 4
# The reference task needs about 10 ms of CPU, so sampling every 0.25 s takes
# about 4% of the CPU from the workload, the same share on every commit.
SAMPLE_EVERY_S = 0.25
CHILD_TIMEOUT_S = 150.0
WORK_DIR = ROOT / ".perfbench_tmp"  # each benchmark process works in its own subdirectory


@dataclass
class Run:
    mode: str  # "-" untraced, or the tracer mode
    rc: int
    wall_s: float
    setup_s: float | None  # None when the child never finished importing
    peak_rss_mb: float
    problems: list[str]
    ref_s: float | None = None  # mean reference-task time while it ran; None when not sampled
    result: object = None  # what two same-seed simulations must share
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("COREGROWTH_CACHE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], workdir: Path, mode: str, sample: bool = False) -> tuple[int, float, float | None, float, float | None]:
    """Run child.py once in ``workdir``: (exit code, wall_s, setup_s, peak_rss_mb, ref_s).

    With ``sample`` the reference task runs every SAMPLE_EVERY_S seconds
    until the child exits, and at least once; ref_s is its mean time.  A
    child that exits during the task is seen to exit up to one task late,
    about 20 ms.
    """
    cmd = [sys.executable, str(HERE / "child.py"), str(workdir / "ready"), mode, *argv]
    refs: list[float] = []
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            if sample:
                pidfd = os.pidfd_open(proc.pid)  # readable once the child has exited
                try:
                    while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                        refs.append(reference_s())
                finally:
                    os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    try:
        setup_s = float((workdir / "ready").read_text()) - t0
    except (OSError, ValueError):
        setup_s = None
    if sample and not refs:  # a child shorter than SAMPLE_EVERY_S
        refs.append(reference_s())
    return rc, t1 - t0, setup_s, usage.ru_maxrss / 1024.0, statistics.mean(refs) if refs else None


class Bench:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        WORK_DIR.mkdir(exist_ok=True)
        self.workroot = Path(tempfile.mkdtemp(dir=WORK_DIR))

    def close(self) -> None:
        shutil.rmtree(self.workroot, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another benchmark process still works there

    def setup_only(self) -> float:
        workdir = Path(tempfile.mkdtemp(dir=self.workroot))
        try:
            rc, _, setup_s, _, _ = spawn([], workdir, "-")
        finally:
            shutil.rmtree(workdir)
        if rc != 0 or setup_s is None:
            raise RuntimeError(f"importing coregrowth.cli failed with exit code {rc}")
        return setup_s

    def run(self, mode: str, sample: bool = False) -> Run:
        workdir = Path(tempfile.mkdtemp(dir=self.workroot))
        try:
            argv = self.workload.argv(workdir, self.seed)
            rc, wall_s, setup_s, rss_mb, ref_s = spawn(argv, workdir, mode, sample)
            stdout = (workdir / "stdout").read_text(encoding="utf-8", errors="replace")
            problems, result = self.workload.check(workdir, stdout, self.seed)
            if rc != 0:
                problems.insert(0, f"exit code {rc}: {_tail(workdir / 'stderr')}")
            elif setup_s is None:
                problems.append("no import time reported")
            trace = None
            if mode != "-":
                try:
                    trace = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    problems.append("traced run wrote no trace")
        finally:
            shutil.rmtree(workdir)
        return Run(mode, rc, wall_s, setup_s, rss_mb, problems, ref_s, result, trace)

    def measure(self, seconds: float, traced: bool) -> tuple[list[Run], list[float]]:
        """Rounds while the next one fits in ``seconds``: the runs and the import-only set-up times."""
        self.setup_only()  # warm-up: byte-code cache and page cache
        runs: list[Run] = []
        setups: list[float] = []
        start = time.monotonic()
        if traced:
            runs.append(self.run("counters"))  # the counts repeat exactly, so one run gives them
        while True:
            t0 = time.monotonic()
            if traced:
                runs += [self.run("-"), self.run("spans")]
            else:
                setups += [self.setup_only() for _ in range(SETUP_PER_ROUND)]
                runs.append(self.run("-", sample=True))
            step = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if len(runs) >= self.workload.min_runs and elapsed + step > seconds:
                break
        if not traced:
            setups += [self.setup_only() for _ in range(SETUP_PER_ROUND)]
        return runs, setups


def _tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def failures(runs: list[Run]) -> list[str]:
    """One line per failed run; a simulation's runs must all match the first."""
    out = []
    for i, r in enumerate(runs):
        problems = list(r.problems)
        if r.result is not None and runs[0].result is not None and r.result != runs[0].result:
            problems.append("ledger or final state differs from the first run with this seed")
        if problems:
            out.append(f"run {i}: " + "; ".join(problems))
    return out


def end_to_end(runs: list[Run], setups: list[float]) -> dict[str, dict]:
    return {
        "wall_rel": {"value": statistics.median(r.wall_s / r.ref_s for r in runs), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups + [r.setup_s for r in runs if r.setup_s is not None]), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs), "unit": "MB"},
    }


def per_layer(runs: list[Run]) -> dict[str, dict]:
    """Medians over the traced runs that give each metric, plus the tracing overhead."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for r in runs:
        for name, m in (r.trace["metrics"] if r.trace else {}).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {name: {"value": statistics.median(v), "unit": units[name]} for name, v in sorted(values.items())}
    timed = [r for r in runs if r.mode == "spans" and r.trace is not None]
    plain = [r for r in runs if r.mode == "-"]
    if timed and plain:
        out["trace.wall_s"] = {"value": statistics.median(r.wall_s for r in timed), "unit": "s"}
        out["trace.untraced_wall_s"] = {"value": statistics.median(r.wall_s for r in plain), "unit": "s"}
        out["trace.overhead_s"] = {"value": statistics.median(overheads(runs)), "unit": "s"}
        gaps = [r.wall_s - r.trace["metrics"]["trace.self_sum_s"]["value"] for r in timed]
        out["trace.unattributed_s"] = {"value": statistics.median(gaps), "unit": "s"}
    return out


def overheads(runs: list[Run]) -> list[float]:
    """Span-timed minus untraced wall_s of each pair, in run order."""
    plain = [r.wall_s for r in runs if r.mode == "-"]
    timed = [r.wall_s for r in runs if r.mode == "spans"]
    return [t - p for p, t in zip(plain, timed)]


def overhead_verdict(diffs: list[float]) -> str:
    """The tracing overhead, called unresolved when the pairs cannot tell it from noise."""
    median = statistics.median(diffs)
    spread = max(diffs) - min(diffs)
    resolved = len(diffs) >= 2 and abs(median) > spread
    return (f"trace overhead: {median:.3f}s, median of {len(diffs)} pair(s), range {spread:.3f}s: "
            + ("resolved" if resolved else "unresolved"))


def pin_to_one_cpu() -> None:
    """Run this process and its children on the first CPU it may use."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="k=3 and 1e4 steps, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coregrowth" / "cli.py").is_file():
        print(f"error: no coregrowth sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    table = workload_table(args.smoke)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    env = environment()  # before pinning, so that nproc counts every CPU
    pin_to_one_cpu()
    bench = Bench(table[args.workload], args.seed)
    try:
        runs, setups = bench.measure(args.seconds, traced=bool(args.trace))
    finally:
        bench.close()
    failed = failures(runs)
    print("env:", json.dumps(env, sort_keys=True))
    for r in runs:
        kind = "untraced" if r.mode == "-" else f"traced ({r.mode})"
        setup = "none" if r.setup_s is None else f"{r.setup_s:.3f}s"
        ref = "" if r.ref_s is None else f", reference task {r.ref_s * 1000:.2f}ms"
        print(f"{kind} run: exit {r.rc}, wall {r.wall_s:.3f}s, setup {setup}, rss {r.peak_rss_mb:.1f}MB{ref}")
    if setups:
        print(f"import-only runs: {len(setups)}, setup " + " ".join(f"{s:.3f}" for s in setups))
    if not args.trace:
        print(f"untraced wall_s median: {statistics.median(r.wall_s for r in runs):.3f}s, "
              f"reference task mean {statistics.mean(r.ref_s for r in runs) * 1000:.2f}ms")
    for line in failed:
        print("FAILED", line, file=sys.stderr)
    if args.trace:
        absent = sorted({name for r in runs if r.trace for name in r.trace["absent"]})
        if absent:
            print("absent probes:", ", ".join(absent), file=sys.stderr)
        print(overhead_verdict(overheads(runs)))
        metrics = per_layer(runs)
    else:
        metrics = end_to_end(runs, setups)
    result = {"correct": not failed, "attempted": len(runs), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
