"""Command-line surface.

Exit codes: 0 when every hard (theorem-grade) assertion passed, 1 when a
theorem or structural invariant failed, 2 on usage or configuration errors.
Conjecture verdicts are findings and never affect the exit code.  The commands
raise ``UsageError`` on refused input (or ``OSError`` on a path); ``main``
alone turns either into the one ``error:`` line and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from coregrowth import chain as chain_mod
from coregrowth import dimensions, simulate, tasep
from coregrowth.partitions import (
    check_k_bounded,
    check_reduced,
    enumerate_reduced_states,
    factorial_index,
    multiplicities,
)
from coregrowth.posets import weak_dim
from coregrowth.reporting import InvariantError, Report, UsageError, hard_failures

EXIT_OK = 0
EXIT_HARD_FAIL = 1
EXIT_USAGE = 2


def _most_printable_k(digits: int) -> int | None:
    """The largest k whose factorial indices, up to k! - 1, have at most ``digits`` digits.

    None for ``digits`` 0, which is Python's "no limit".  Every command
    imports this module, so the search is kept cheap (a tenth of the time
    of building up k! one factor at a time): a bisection on
    ln k! = lgamma(k + 1) finds k up to float rounding, which exact
    comparisons of k! with 10^digits then settle.  k! > 10^k from k = 25 on,
    so the answer lies below max(digits, 25).
    """
    if not digits:
        return None
    low, high = 1, max(digits, 25)
    while high - low > 1:
        mid = (low + high) // 2
        if math.lgamma(mid + 1) < digits * math.log(10):
            low = mid
        else:
            high = mid
    bound = 10**digits
    while math.factorial(low + 1) < bound:
        low += 1
    while math.factorial(low) >= bound:
        low -= 1
    return low


# The k range of each subcommand.  The finite chain and the simulator need
# k >= 2.  The commands that build the chain, and `dims --all-reduced`, which
# tabulates all k! reduced states, stop at k = 6 unless --force is given: the
# k = 7 chain takes minutes to build, the k = 8 one hours.  `tasep` prints a
# factorial index up to k! - 1, so it stops where that index has more digits
# than Python converts to a string (k = 1558 at the default limit of 4,300
# digits, none under a limit of 0); it has no --force.  One partition's
# `dims` row and the appendix suite, which builds no chain, stay unguarded.
LEAST_K = {"dims": 1, "tasep": 1, "chain": 2, "verify": 2, "simulate": 2}
MOST_K = {
    "chain": 6,
    "verify": 6,
    "simulate": 6,
    "dims --all-reduced": 6,
    "tasep": _most_printable_k(sys.get_int_max_str_digits()),
}


def guard_error(command: str, k: int, force: bool | None) -> None:
    """Raise UsageError if ``command`` refuses this k; --force lifts only the upper bound.

    ``force`` is None for a command that has no --force flag.
    """
    name = command.split()[0]
    least = LEAST_K[name]
    if k < least:
        raise UsageError(f"{name} needs k >= {least}, got k={k}")
    most = MOST_K.get(command)
    if most is not None and k > most and not force:
        hint = "" if force is None else " (pass --force to override)"
        raise UsageError(f"k={k} outside the guarded range {least}..{most}{hint}")


@dataclass
class RunReport:
    command: str
    k: int | None
    inputs: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    verifiers: list[dict[str, Any]] = field(default_factory=list)
    seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "k": self.k,
                "inputs": self.inputs,
                "results": self.results,
                "verifiers": self.verifiers,
                "seconds": round(self.seconds, 3),
            },
            indent=2,
            sort_keys=True,
        )


def parse_partition(text: str):
    """Parts separated by commas or by spaces, in at most one pair of brackets.

    Accepts '2,1,1', '2, 1', '2 1 1' and '[4, 3, 1]'; '' and '[]' are the
    empty partition.  An empty field ('2,,1', ',,') or a nested bracket
    ('[[2]]') is a UsageError.
    """
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1].strip()
    if not body:
        return ()
    try:
        return tuple(int(x) for x in (body.split(",") if "," in body else body.split()))
    except ValueError as exc:
        raise UsageError(f"cannot parse partition {text!r}") from exc


def _check_output_paths(*paths) -> None:
    """Refuse a bad output path before any work: it must name a file in an existing directory.

    None stands for an output that was not asked for.
    """
    for path in paths:
        if path is None:
            continue
        folder = os.path.dirname(path) or "."
        if not path or os.path.isdir(path):
            raise UsageError(f"output path {path!r} is not a file name")
        if not os.path.isdir(folder):
            raise UsageError(f"output path {path!r}: directory {folder!r} does not exist")


def _parsed(parse, *args):
    """``parse(*args)``, with the parser's ValueError re-raised as a UsageError."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _name(parts) -> str:
    return "(" + ",".join(map(str, parts)) + ")"


def _name_of(l) -> str:
    """``_name`` of the partition with multiplicities l, one run of "i," per part size."""
    return "(" + "".join(f"{i}," * l[i - 1] for i in range(len(l), 0, -1))[:-1] + ")"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_dims(args) -> int:
    k = args.k
    guard_error("dims --all-reduced" if args.all_reduced else "dims", k, args.force)
    if args.all_reduced:
        if args.partition is not None:
            raise UsageError("--all-reduced takes no partition")
        targets = list(enumerate_reduced_states(k))
    else:
        parts = () if args.partition is None else parse_partition(args.partition)
        targets = [_parsed(check_k_bounded, parts, k)]
    print(f"{'partition':>20} {'d^(k)':>12} {'w^(k)':>12} {'d_hook':>12}  sandwich")
    failed = False
    for lam in targets:
        d_strong = dimensions.strong_dim_tableaux(lam, k)
        d_weak = weak_dim(lam, k)
        d_hook = dimensions.hook_dim(lam)
        ok = d_weak <= d_hook <= d_strong
        flag = "w<=d<=d^(k)" if ok else "VIOLATED"
        if k >= sum(lam):
            equal = d_weak == d_hook == d_strong
            flag += " (equality regime)" if equal else " (equality VIOLATED)"
            ok = ok and equal
        print(f"{_name(lam):>20} {d_strong:>12} {d_weak:>12} {d_hook:>12}  {flag}")
        failed = failed or not ok
    return EXIT_HARD_FAIL if failed else EXIT_OK


def _solved_chain(k: int):
    mc = chain_mod.build_chain(k)
    pi = chain_mod.stationary(mc)
    return mc, pi


def _theorem_reports(k: int, mc, pi) -> list[Report]:
    return [
        chain_mod.verify_pieri_row_sums(mc),
        chain_mod.verify_rate_one_over_k(mc),
        chain_mod.verify_conjugation_symmetry(mc, pi),
        chain_mod.verify_rho_symmetry(mc, pi),
        tasep.verify_tasep_equivalence(mc),
        tasep.verify_rectangle_jump(mc),
        simulate.verify_projection(k, 10),
        chain_mod.verify_stationarity_identity(k, 6),
        chain_mod.verify_normalization(k, 6),
    ]


def _conjecture_reports(k: int, mc, pi) -> list[Report]:
    return [
        chain_mod.verify_complement(mc, pi),
        chain_mod.verify_lcd_and_mk(mc, pi),
        chain_mod.verify_minimum(mc, pi),
        chain_mod.verify_position_of_k(mc, pi),
        chain_mod.verify_rho_conjecture(mc, pi),
    ]


def cmd_chain(args) -> int:
    k = args.k
    guard_error("chain", k, args.force)
    _check_output_paths(args.json, args.csv)
    t0 = time.perf_counter()
    mc, pi = _solved_chain(k)
    reports = _theorem_reports(k, mc, pi) + _conjecture_reports(k, mc, pi)
    print(f"chain on {mc.size} states, k={k}")
    print(f"lcd(pi) = {pi.lcd}")
    for i, s in enumerate(mc.states):
        print(f"  {i:>4} {_name(s):>24}  pi = {pi.values[i]}")
    for r in reports:
        print(r.line())
    if args.json:
        _write(args.json, chain_mod.chain_to_json(mc, pi, reports))
    if args.csv:
        _write(args.csv, chain_mod.pi_csv(mc, pi))
    print(f"elapsed: {time.perf_counter() - t0:.2f}s")
    return EXIT_HARD_FAIL if hard_failures(reports) else EXIT_OK


def _sim_config(args) -> simulate.SimConfig:
    """The run configuration of ``simulate``: from --config alone, or from the flags."""
    if args.config:
        flags = ("k", "n", "seed", "csv", "svg")
        given = [f"--{name}" for name in flags if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--config excludes {', '.join(given)}")
        with open(args.config, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError(f"config is not valid UTF-8: {exc}") from exc
        return simulate.SimConfig.from_json(text)
    if args.k is None or args.n is None:
        raise UsageError("either --config or both --k and --n")
    outputs = {}
    if args.csv is not None:
        outputs["boundary_csv"] = args.csv
    if args.svg is not None:
        outputs["svg"] = args.svg
    config = {"k": args.k, "n": args.n, "outputs": outputs}
    if args.seed is not None:
        config["seed"] = args.seed
    return simulate.SimConfig.from_dict(config)


def cmd_simulate(args) -> int:
    config = _sim_config(args)
    guard_error("simulate", config.k, args.force)
    _check_output_paths(*config.outputs.values())
    t0 = time.perf_counter()
    result = simulate.run_simulation(config)
    mc, pi = _solved_chain(config.k)
    rho = chain_mod.rho_vector(mc, pi)
    deviation = simulate.compare_to_limit(result.boundary, rho)
    written = simulate.write_outputs(result, pi, rho, deviation)
    print(
        "k=%d n=%d seed=%d  rho=%s sup_dev=%.4g mean_sq=%.4g"
        % (config.k, config.n, config.seed, ",".join(map(str, rho)), *deviation)
    )
    print("rho_hat:", " ".join("%.6g" % x for x in result.rho_hat))
    for path in written:
        print(f"wrote {path}")
    print(f"elapsed: {time.perf_counter() - t0:.2f}s")
    return EXIT_OK


def cmd_verify(args) -> int:
    k = args.k
    guard_error("verify --suite appendix" if args.suite == "appendix" else "verify", k, args.force)
    _check_output_paths(args.json)
    t0 = time.perf_counter()
    report = RunReport(command="verify", k=k, inputs={"suite": args.suite})
    reports: list[Report] = []
    if args.suite in ("theorems", "conjectures", "all"):
        mc, pi = _solved_chain(k)
        if args.suite in ("theorems", "all"):
            reports += _theorem_reports(k, mc, pi)
        if args.suite in ("conjectures", "all"):
            reports += _conjecture_reports(k, mc, pi)
    if args.suite in ("appendix", "all"):
        reports += appendix_reports(k)
    for r in reports:
        print(r.line())
    report.verifiers = [r.to_dict() for r in reports]
    report.seconds = time.perf_counter() - t0
    if args.json:
        _write(args.json, report.to_json())
    failed = hard_failures(reports)
    print(
        f"{len(reports)} checks, {sum(r.passed for r in reports)} passed, "
        f"{len(failed)} hard failures ({report.seconds:.2f}s)"
    )
    return EXIT_HARD_FAIL if failed else EXIT_OK


def appendix_reports(k: int) -> list[Report]:
    """Operator-calculus property checks (composition sums, expansions, vanishing)."""
    from coregrowth.verify_appendix import (
        verify_composition_sums,
        verify_interval_expansion,
        verify_inversion_expansion,
        verify_long_columns,
        verify_vanishing,
    )

    return [
        verify_composition_sums(12),
        verify_inversion_expansion(max_t=5, vectors=100, seed=20260810),
        verify_interval_expansion(max_k=8),
        verify_vanishing(max_t=5, max_entry=4),
        verify_long_columns(min(k, 4)),
    ]


def cmd_tasep(args) -> int:
    k = args.k
    guard_error("tasep", k, None)
    if args.word is not None and args.state is not None:
        raise UsageError("give --word or --state, not both")
    if args.word is not None:
        word = _parsed(tasep.word_from_string, args.word)
        if len(word) != k + 1:
            raise UsageError(f"word has {len(word)} letters, expected {k + 1}")
        state = tasep.alpha(word)
    elif args.state is not None:
        state = _parsed(check_reduced, parse_partition(args.state), k)
        word = tasep.alpha_inv(state, k)
    else:
        raise UsageError("provide --word or --state")
    l = multiplicities(state, k)
    print(f"state {_name_of(l)}   l = {l}")
    print(f"word  {tasep.word_to_string(word)}")
    print(f"factorial index {factorial_index(state, k)}")
    # By the TASEP equivalence, the jump of a value grows that column.
    for value, moved in tasep.jumps(word):
        target_l = chain_mod.step_target(l, value, k)[0]
        print(f"jump of {value}: {tasep.word_to_string(moved)}  -> column {value}, state {_name_of(target_l)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coregrowth",
        description="Exact growth process on core partitions: dimensions, chain, TASEP, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension table for a partition or all reduced states")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("partition", nargs="?", help="default: the empty partition")
    p.add_argument("--all-reduced", action="store_true")
    p.add_argument("--force", action="store_true", help="lift the k<=6 guard of --all-reduced")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("chain", help="build and solve the finite chain exactly")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", help="write chain.json here")
    p.add_argument("--csv", help="write the stationary vector CSV here")
    p.add_argument("--force", action="store_true", help="lift the k<=6 guard")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("simulate", help="run the growth simulator")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--csv", help="boundary CSV path")
    p.add_argument("--svg", help="overlay SVG path")
    p.add_argument("--force", action="store_true", help="lift the k<=6 guard")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a verifier suite")
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--suite",
        choices=["theorems", "conjectures", "appendix", "all"],
        default="all",
    )
    p.add_argument("--json", help="write the run report here")
    p.add_argument("--force", action="store_true", help="lift the k<=6 guard")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tasep", help="dump the state/word correspondence and jumps")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--word", help="word like 1-4-2-3-5")
    p.add_argument("--state")
    p.set_defaults(func=cmd_tasep)
    return parser


def main(argv=None) -> int:
    # numpy runs only the simulator and the modular fallback of
    # chain.stationary, both on small arrays, where a multi-threaded BLAS
    # has cost more than it saved; a value the user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # argparse sets an unknown option before the command aside and reads the
    # word after it as the command: name the option instead.
    for arg in argv:
        if not arg.startswith("-") or arg == "-h" or "--help".startswith(arg):
            break
        parser.error(f"unrecognized arguments: {arg}")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a config or output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        print(f"hard assertion failed: {exc}", file=sys.stderr)
        return EXIT_HARD_FAIL


if __name__ == "__main__":
    sys.exit(main())
