"""The benchmark's workloads and the checks on their outputs.

Each workload is one CLI command.  ``argv`` writes any input file into the
run's fresh directory and returns the command line; ``check`` reads the
outputs back and returns a list of problems, empty when the run is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))

VERIFIERS_IN_SUITE_ALL = 19
THEOREMS_IN_CHAIN = 9
# |rho_hat - rho| may be this many binomial standard deviations
# sqrt(rho (1 - rho) / n).  Deviations seen at the benchmark's sizes are
# about one; six still rejects a rate that is off by 1% at k=3, n=3e6.
RHO_Z = 6.0

_VERDICT = re.compile(r"^\[(PASS|FAIL|COUNTEREXAMPLE)\] \((theorem|conjecture)\) (\S+)$")
_LCD = re.compile(r"^lcd\(pi\) = (\d+)$")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "chain", "verify" or "simulate"
    k: int
    n: int = 0  # simulation steps
    # A simulation runs at least twice per benchmark run, so that two runs
    # with one seed can be compared.
    min_runs: int = 1

    def argv(self, workdir: Path, seed: int) -> list[str]:
        if self.command == "chain":
            return ["chain", "--k", str(self.k), "--csv", "pi.csv"]
        if self.command == "verify":
            return ["verify", "--k", str(self.k), "--suite", "all", "--json", "report.json"]
        config = {"k": self.k, "n": self.n, "seed": seed, "outputs": {"report_json": "sim.json"}}
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        return ["simulate", "--config", "config.json"]

    def check(self, workdir: Path, stdout: str, seed: int) -> tuple[list[str], object]:
        """Problems with one run's outputs, and the result two same-seed runs must share."""
        if self.command == "simulate":
            return check_simulation(self.k, self.n, seed, workdir / "sim.json")
        expected = EXPECTED[str(self.k)]
        problems = check_verdicts(stdout, expected["conjectures"])
        if self.command == "chain":
            lcds = [int(m.group(1)) for m in map(_LCD.match, stdout.splitlines()) if m]
            if lcds != [expected["lcd"]]:
                problems.append(f"lcd lines {lcds}, expected [{expected['lcd']}]")
            theorems = [v for v in verdicts(stdout) if v[1] == "theorem"]
            if len(theorems) != THEOREMS_IN_CHAIN:
                problems.append(f"{len(theorems)} theorem verdicts, expected {THEOREMS_IN_CHAIN}")
            pi = read_pi_csv(workdir / "pi.csv")
        else:
            report_problems, pi = check_verify_report(workdir / "report.json", expected["lcd"])
            problems += report_problems
        if pi is None:
            problems.append("no stationary vector to check")
        elif pi_digest(pi) != expected["pi_sha256"]:
            problems.append("stationary vector differs from the recorded digest")
        return problems, None


def workload_table(smoke: bool) -> dict[str, Workload]:
    """The four workloads; ``smoke`` shrinks them to k=3 and 1e4 steps for tests."""
    full = [
        Workload("exact-k6", "chain", 6),
        Workload("verify-k5", "verify", 5),
        Workload("sim-k3", "simulate", 3, n=3_000_000, min_runs=2),
        Workload("sim-k5", "simulate", 5, n=1_000_000, min_runs=2),
    ]
    if smoke:
        full = [
            Workload(w.name, w.command, 3, n=10_000 if w.n else 0, min_runs=w.min_runs)
            for w in full
        ]
    return {w.name: w for w in full}


def verdicts(stdout: str) -> list[tuple[str, str, str]]:
    """(status, kind, name) of every verdict line."""
    return [m.groups() for m in map(_VERDICT.match, stdout.splitlines()) if m]


def check_verdicts(stdout: str, conjectures: list[str]) -> list[str]:
    """Every theorem passes and the conjecture verdicts are the recorded ones."""
    found = verdicts(stdout)
    problems = [f"theorem {name} is {status}" for status, kind, name in found if kind == "theorem" and status != "PASS"]
    got = [f"{status} {name}" for status, kind, name in found if kind == "conjecture"]
    if got != conjectures:
        problems.append(f"conjecture verdicts {got}, expected {conjectures}")
    return problems


def read_pi_csv(path: Path) -> list[Fraction] | None:
    if not path.is_file():
        return None
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [int(r["index"]) for r in rows] != list(range(len(rows))):
        return None
    return [Fraction(int(r["numerator"]), int(r["denominator"])) for r in rows]


def pi_digest(pi: list[Fraction]) -> str:
    """sha256 over "index,numerator,denominator" lines in index order."""
    text = "".join(f"{i},{v.numerator},{v.denominator}\n" for i, v in enumerate(pi))
    return hashlib.sha256(text.encode()).hexdigest()


def check_verify_report(path: Path, lcd: int) -> tuple[list[str], list[Fraction] | None]:
    """19 passing verifiers, the recorded lcd, and pi recovered from the M_k table."""
    if not path.is_file():
        return ["no JSON report"], None
    report = json.loads(path.read_text(encoding="utf-8"))
    found = report.get("verifiers", [])
    problems = []
    if len(found) != VERIFIERS_IN_SUITE_ALL:
        problems.append(f"{len(found)} verifiers, expected {VERIFIERS_IN_SUITE_ALL}")
    problems += [f"verifier {v['name']} is {v['status']}" for v in found if v["status"] != "PASS"]
    lcd_reports = [v["details"] for v in found if v["name"] == "lcd-divides-Mk"]
    if len(lcd_reports) != 1:
        return problems + ["no lcd-divides-Mk verifier"], None
    details = lcd_reports[0]
    if details["lcd"] != lcd:
        problems.append(f"lcd {details['lcd']}, expected {lcd}")
    table = details["A_table"]  # factorial index -> pi * M_k
    if sorted(map(int, table)) != list(range(len(table))):
        return problems + ["A_table is not indexed 0..n-1"], None
    mk = int(details["Mk"])
    return problems, [Fraction(table[str(i)]) / mk for i in range(len(table))]


def rectangle_area(i: int, k: int) -> int:
    return i * (k + 1 - i)


def check_simulation(k: int, n: int, seed: int, path: Path) -> tuple[list[str], object]:
    """Box conservation, rho_hat near 1/C(k+2,3); returns (ledger, final_state)."""
    if not path.is_file():
        return ["no simulation report"], None
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if (report["k"], report["n"], report["seed"]) != (k, n, seed):
        problems.append(f"report is for k,n,seed={report['k']},{report['n']},{report['seed']}")
    ledger, final = report["ledger"], report["final_state"]
    if len(ledger) != k:
        return problems + [f"ledger has {len(ledger)} entries, expected {k}"], None
    boxes = sum(final) + sum(c * rectangle_area(i, k) for i, c in enumerate(ledger, start=1))
    if boxes != n:
        problems.append(f"{boxes} boxes after {n} steps")
    rho = 1 / math.comb(k + 2, 3)
    tol = RHO_Z * math.sqrt(rho * (1 - rho) / n)
    for i, (count, hat) in enumerate(zip(ledger, report["rho_hat"]), start=1):
        if hat != count / n:
            problems.append(f"rho_hat[{i}] = {hat} is not ledger/n")
        if abs(hat - rho) > tol:
            problems.append(f"rho_hat[{i}] = {hat:.6g}, expected {rho:.6g} +- {tol:.3g}")
    return problems, (tuple(ledger), tuple(final))
