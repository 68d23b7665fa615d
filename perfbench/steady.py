"""Repeat the benchmark over seeds and summarise each metric's spread.

usage: python3 perfbench/steady.py [--seed0 1] [--trace] [--out FILE]

Runs ``run.py`` on every workload of BENCHMARK.json with RUNS seeds from
--seed0 on, one run at a time, with its ``run_seconds``.  For each
end-to-end metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median ("spread"), next to the metric's bound, and the same for the raw
wall time that ``wall_rel`` divides by the reference task's time.
``--trace`` adds one traced run per workload, with its tracing-overhead
line.  The summary also carries
the environment, so that written to BASELINE.json it is the recorded
baseline of the commit it ran on; the workloads' reasons stay in
BENCHMARK.json and the layer predictions in predictions.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """The result line of one run.py call, and the lines before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def line_after(prefix: str, lines: list[str]) -> str:
    return next(line[len(prefix):] for line in lines if line.startswith(prefix))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def against_bound(summary: dict, bound: float) -> dict:
    return {**summary, "bound": bound, "spread_within_third_of_bound": summary["spread"] < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the JSON summary here instead of stdout")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "runs_per_workload": RUNS, "workloads": {}}
    for w in spec["workloads"]:
        results = []
        raw_walls = []
        for i in range(RUNS):
            result, lines = bench_once(w["name"], args.seed0 + i, seconds, trace=False)
            results.append(result)
            raw_walls.append(float(line_after("untraced wall_s median: ", lines).split("s,")[0]))
            print(w["name"], args.seed0 + i, json.dumps(result["metrics"]), file=sys.stderr)
        entry = {
            "seeds": [args.seed0 + i for i in range(RUNS)],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "fail_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "end_to_end": {
                name: against_bound(summarise([r["metrics"][name]["value"] for r in results]), bound)
                for name, bound in bounds.items()
            },
            "raw_wall_s": summarise(raw_walls),
        }
        if args.trace:
            traced, traced_lines = bench_once(w["name"], args.seed0, seconds, trace=True)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["traced_failed"] = traced["failed"]
            entry["trace_overhead"] = line_after("trace overhead: ", traced_lines)
        summary["workloads"][w["name"]] = entry
        summary["env"] = json.loads(line_after("env: ", lines))
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
