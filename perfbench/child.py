"""Run one coregrowth CLI command in this fresh process.

usage: child.py READY_FILE TRACE_MODE ARGV...

Writes the CLOCK_MONOTONIC time at which ``coregrowth.cli`` finished
importing to READY_FILE, then calls ``coregrowth.cli.main(ARGV)`` and exits
with its code.  With TRACE_MODE ``spans`` or ``counters`` instead of ``-``
the layers are traced (see tracer.py) and their metrics are written to
trace.json in the working directory.  An empty ARGV stops after the import,
which times set-up alone.
"""

import sys
import time


def main() -> int:
    ready_file, trace_mode, *argv = sys.argv[1:]
    t0 = time.perf_counter()
    import coregrowth.cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import_s = time.perf_counter() - t0
    with open(ready_file, "w", encoding="utf-8") as fh:
        fh.write(repr(ready))
    if not argv:
        return 0
    if trace_mode == "-":
        return coregrowth.cli.main(argv)

    import json

    import coregrowth.verify_appendix  # noqa: F401  (imported lazily by the CLI; probed here)
    from tracer import Tracer

    tracer = Tracer(trace_mode).install()
    try:
        return coregrowth.cli.main(argv)
    finally:
        with open("trace.json", "w", encoding="utf-8") as fh:
            json.dump({"metrics": tracer.metrics(import_s), "sites": tracer.sites, "absent": tracer.absent}, fh)


if __name__ == "__main__":
    sys.exit(main())
