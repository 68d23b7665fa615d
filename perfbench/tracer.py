"""Per-layer tracing of coregrowth, installed from outside the package.

``Tracer.install`` replaces each probed function with a wrapper at every
binding site: the defining module and every ``coregrowth.*`` module that
imported the function by name (found by object identity).  A span wrapper
records calls and self time, meaning wall time minus the time spent in
wrapped callees.  A counter wrapper records only calls and truthy results,
because the function it watches runs tens of millions of times.  Even so a
counter doubles the time of the k=6 dimension table, so one tracer installs
either the spans (mode "spans") or the counters (mode "counters"), and the
self times come from runs without counters.  A probed function that no
longer exists makes its metrics absent from the report instead of failing
the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

CHAIN_VERIFIERS = (
    "verify_pieri_row_sums",
    "verify_rate_one_over_k",
    "verify_conjugation_symmetry",
    "verify_rho_symmetry",
    "verify_stationarity_identity",
    "verify_normalization",
    "verify_complement",
    "verify_lcd_and_mk",
    "verify_minimum",
    "verify_position_of_k",
    "verify_rho_conjecture",
)
APPENDIX_VERIFIERS = (
    "verify_composition_sums",
    "verify_inversion_expansion",
    "verify_interval_expansion",
    "verify_vanishing",
    "verify_long_columns",
)


def _failed(args, result) -> int:
    return result is None


def _steps(args, result) -> int:
    return getattr(args[0], "n", 0) if args else 0


# (span key, module, function, tally).  Functions that share a key add up
# under it; ``tally(args, result)`` adds to the key's tally after each call.
SPANS = [
    ("cli.main", "cli", "main", None),
    ("posets.cores_of_level", "posets", "cores_of_level", None),
    ("posets.weak_covers_bounded", "posets", "weak_covers_bounded", None),
    ("dimensions.dimension_table", "dimensions", "dimension_table", None),
    ("partitions.bounded_to_core", "partitions", "bounded_to_core", None),
    ("chain.build_chain", "chain", "build_chain", None),
    ("chain.stationary", "chain", "stationary", None),
    ("chain.gauss", "chain", "_solve_fraction_gauss", None),
    ("chain.crt", "chain", "_solve_crt", None),
    ("chain.mod_p", "chain", "_solve_mod_p", None),
    ("chain.reconstruct", "chain", "_rational_reconstruct", _failed),
    ("chain.verify_stationary", "chain", "_verify_stationary", None),
    *(("chain.verifiers", "chain", name, None) for name in CHAIN_VERIFIERS),
    ("tasep.verifiers", "tasep", "verify_tasep_equivalence", None),
    ("tasep.verifiers", "tasep", "verify_rectangle_jump", None),
    ("simulate.run_simulation", "simulate", "run_simulation", _steps),
    ("simulate.sampling_tables", "simulate", "_sampling_tables", None),
    ("simulate.boundary_from_frontiers", "simulate", "boundary_from_frontiers", None),
    ("simulate.compare_to_limit", "simulate", "compare_to_limit", None),
    ("simulate.verify_projection", "simulate", "verify_projection", None),
    ("simulate.write_outputs", "simulate", "write_outputs", None),
    *((f"verify_appendix.{name}", "verify_appendix", name, None) for name in APPENDIX_VERIFIERS),
]

# (module, function, per_site).  A per-site counter keeps one count per
# binding module, keyed "<binding module>.<function>"; otherwise one count is
# keyed "<defining module>.<function>".
COUNTERS = [
    ("posets", "contains", True),
    ("dimensions", "triangle_vanishes", False),
]

# (metric, span key, field, unit), field being "s" (self time), "calls" or
# "tally".
PLAIN_METRICS = [
    ("cli.self_s", "cli.main", "s", "s"),
    ("posets.cores_of_level.s", "posets.cores_of_level", "s", "s"),
    ("posets.weak_covers_bounded.calls", "posets.weak_covers_bounded", "calls", "count"),
    ("posets.weak_covers_bounded.s", "posets.weak_covers_bounded", "s", "s"),
    ("dimensions.dimension_table.s", "dimensions.dimension_table", "s", "s"),
    ("dimensions.contains.calls", "dimensions.contains", "calls", "count"),
    ("dimensions.contains.hits", "dimensions.contains", "tally", "count"),
    ("dimensions.triangle_vanishes.calls", "dimensions.triangle_vanishes", "calls", "count"),
    ("partitions.bounded_to_core.calls", "partitions.bounded_to_core", "calls", "count"),
    ("partitions.bounded_to_core.s", "partitions.bounded_to_core", "s", "s"),
    ("chain.build_chain.calls", "chain.build_chain", "calls", "count"),
    ("chain.build_chain.s", "chain.build_chain", "s", "s"),
    ("chain.stationary.s", "chain.stationary", "s", "s"),
    ("chain.gauss.s", "chain.gauss", "s", "s"),
    ("chain.crt.s", "chain.crt", "s", "s"),
    ("chain.mod_p.calls", "chain.mod_p", "calls", "count"),
    ("chain.mod_p.s", "chain.mod_p", "s", "s"),
    ("chain.reconstruct.failures", "chain.reconstruct", "tally", "count"),
    ("chain.reconstruct.s", "chain.reconstruct", "s", "s"),
    ("chain.verify_stationary.calls", "chain.verify_stationary", "calls", "count"),
    ("chain.verify_stationary.s", "chain.verify_stationary", "s", "s"),
    ("chain.verifiers.s", "chain.verifiers", "s", "s"),
    ("tasep.verifiers.s", "tasep.verifiers", "s", "s"),
    ("simulate.run_simulation.s", "simulate.run_simulation", "s", "s"),
    ("simulate.sampling_tables.s", "simulate.sampling_tables", "s", "s"),
    ("simulate.boundary_from_frontiers.s", "simulate.boundary_from_frontiers", "s", "s"),
    ("simulate.compare_to_limit.s", "simulate.compare_to_limit", "s", "s"),
    ("simulate.verify_projection.s", "simulate.verify_projection", "s", "s"),
    ("simulate.write_outputs.s", "simulate.write_outputs", "s", "s"),
    *(
        (f"verify_appendix.{name}.s", f"verify_appendix.{name}", "s", "s")
        for name in APPENDIX_VERIFIERS
    ),
]

# (metric, numerator (key, field), denominator (key, field), unit)
RATIO_METRICS = [
    ("dimensions.cover_yield", ("dimensions.contains", "tally"), ("dimensions.contains", "calls"), "ratio"),
    (
        "chain.certificates_per_solve",
        ("chain.verify_stationary", "calls"),
        ("chain.stationary", "calls"),
        "ratio",
    ),
    ("simulate.steps_per_s", ("simulate.run_simulation", "tally"), ("simulate.run_simulation", "s"), "1/s"),
]


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("spans", "counters"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.tally: dict[str, int] = {}
        self.sites: Counter[str] = Counter()  # binding sites patched per key
        self.absent: list[str] = []  # "module.function" not found
        self._counters: dict[str, list[int]] = {}  # key -> [calls, truthy]
        self._stack = [0.0]  # wrapped-callee time of each open span

    def span(self, key: str, fn, tally=None):
        calls, self_s, tallies, stack = self.calls, self.self_s, self.tally, self._stack
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        tallies.setdefault(key, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[key] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[key] += 1
            if tally is not None:
                tallies[key] += tally(args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        cell = self._counters.setdefault(key, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            if result:
                cell[1] += 1
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every probe at every binding site in the loaded coregrowth modules."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("coregrowth.")
        }
        modules["coregrowth"] = sys.modules["coregrowth"]
        for key, mod, name, tally in SPANS if self.mode == "spans" else ():
            original = getattr(modules.get(mod), name, None)
            if original is None:
                self.absent.append(f"{mod}.{name}")
                continue
            wrapper = self.span(key, original, tally)
            for _ in _rebind(modules.items(), original, lambda _layer: wrapper):
                self.sites[key] += 1
        for mod, name, per_site in COUNTERS if self.mode == "counters" else ():
            original = getattr(modules.get(mod), name, None)
            if original is None:
                self.absent.append(f"{mod}.{name}")
                continue
            key_of = (lambda layer: f"{layer}.{name}") if per_site else (lambda _layer: f"{mod}.{name}")
            for layer in _rebind(modules.items(), original, lambda layer: self.counter(key_of(layer), original)):
                self.sites[key_of(layer)] += 1
        return self

    def field(self, key: str, field: str):
        if key in self._counters:
            calls, truthy = self._counters[key]
            return {"calls": calls, "tally": truthy}.get(field)
        if key not in self.calls:
            return None
        return {"s": self.self_s, "calls": self.calls, "tally": self.tally}[field][key]

    def metrics(self, import_s: float) -> dict[str, dict]:
        """This mode's per-layer metrics, in the benchmark's output format."""
        out = {}
        for metric, key, field, unit in PLAIN_METRICS:
            value = self.field(key, field)
            if value is not None:
                out[metric] = {"value": value, "unit": unit}
        for metric, (nkey, nfield), (dkey, dfield), unit in RATIO_METRICS:
            num, den = self.field(nkey, nfield), self.field(dkey, dfield)
            if num is not None and den is not None:
                out[metric] = {"value": num / den if den else 0.0, "unit": unit}
        if self.mode == "counters":
            tables = getattr(sys.modules["coregrowth.dimensions"], "_TABLES", None)
            try:
                entries = sum(len(t.by_core) for t in tables.values())
            except AttributeError:
                pass  # the table's layout changed: the metric is absent
            else:
                out["dimensions.table_entries"] = {"value": entries, "unit": "count"}
            return out
        out["cli.import_s"] = {"value": import_s, "unit": "s"}
        # Spans nest, so the self times sum to the time spent in the outermost
        # ones: all of main.
        out["trace.self_sum_s"] = {"value": import_s + sum(self.self_s.values()), "unit": "s"}
        return out


def _rebind(modules, original, make) -> list[str]:
    """Point every module global bound to ``original`` at ``make(layer)``.

    ``modules`` holds (layer, module) pairs; returns the layer of each
    binding replaced.
    """
    rebound = []
    for layer, mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, make(layer))
                rebound.append(layer)
    return rebound
