"""A fixed slice of pure-Python work that times the host's current speed.

The benchmark's host is shared: while other tenants keep its cores busy,
the same program runs up to a third slower, and the speed changes within
seconds.  While a workload runs, run.py does this task every
SAMPLE_EVERY_S seconds on the same CPU and reports the run's wall time
over the task's mean time during it (``wall_rel``).  A slow spell
lengthens both, so their ratio keeps still while the raw wall time does
not.  Timing the task only between runs does not work: it misses the
changes of speed within a run.

The task depends on nothing but this file, so a change to the program
leaves it alone.  It mixes the kinds of work the workloads do: big-integer
``Fraction`` elimination (the exact solvers), containment tests between
tuples (the dimension tables) and a plain integer loop (the simulator's
step loop).  It needs 10 to 16 ms of CPU on the 2-vCPU host it was tuned on.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

# The three parts' results, so that a broken task cannot pass for a fast one.
EXPECTED = (Fraction(1), 654, 44493)


def fraction_elimination(n: int = 12) -> Fraction:
    """Row-reduce the n x n Hilbert matrix; returns det * its known inverse, 1."""
    a = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pivot_row = a[c]
        det *= pivot_row[c]
        for r in range(c + 1, n):
            row = a[r]
            f = row[c] / pivot_row[c]
            for j in range(c, n):
                row[j] -= f * pivot_row[j]
    inverse_det = 1  # 1 / det(H_n) = prod_{i<n} (2i+1) C(2i,i)^2
    for i in range(n):
        inverse_det *= (2 * i + 1) * comb(2 * i, i) ** 2
    return det * inverse_det


def tuple_containment(n: int = 100) -> int:
    """Count componentwise-<= pairs between n tuples and the first 60."""
    items = [tuple((i * 7 + j * 13 + i * j) % 11 for j in range(6)) for i in range(n)]
    count = 0
    for t in items:
        for s in items[:60]:
            if all(x <= y for x, y in zip(s, t)):
                count += 1
    return count


def integer_loop(n: int = 15_000) -> int:
    x, acc = 12345, 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += x % 7
    return acc


def reference_s() -> float:
    """Wall seconds the task takes now; raises if it computed a wrong result.

    Wall time, not CPU time, so that the task also slows down when other
    processes or the hypervisor take the CPU from this one, as they do
    from the workload.  While a workload runs on the same CPU the two share
    it, so the task takes about twice its CPU time, on every commit alike.
    """
    t0 = time.perf_counter()
    got = (fraction_elimination(), tuple_containment(), integer_loop())
    elapsed = time.perf_counter() - t0
    if got != EXPECTED:
        raise RuntimeError(f"reference task computed {got}, expected {EXPECTED}")
    return elapsed
