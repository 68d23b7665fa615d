"""The benchmark's probes name functions that exist.

``perfbench/tracer.py`` wraps each (module, function) of its ``SPANS`` and
``COUNTERS`` lists, and a probed function that no longer exists only makes
its metrics absent.  This test reads those lists from the tracer file,
without changing it, so that dropping or renaming a probed function fails
here as well as in the benchmark's own tests.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_a_function_of_the_package():
    tracer = _tracer()
    probes = {(mod, name) for _key, mod, name, _tally in tracer.SPANS}
    probes |= {(mod, name) for mod, name, _per_site in tracer.COUNTERS}
    assert len(probes) == 38
    missing = [
        f"{mod}.{name}"
        for mod, name in sorted(probes)
        if not callable(getattr(importlib.import_module(f"coregrowth.{mod}"), name, None))
    ]
    assert missing == []
