"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 3 includes the 720-state chain and dominates the runtime.
"""

import math
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from coregrowth import chain as chain_mod
from coregrowth import dimensions, simulate, tasep
from coregrowth.partitions import EMPTY
from coregrowth.posets import enumerate_bounded, weak_dim
from coregrowth.reporting import hard_failures
from coregrowth.verify_appendix import (
    verify_composition_sums,
    verify_interval_expansion,
    verify_inversion_expansion,
    verify_long_columns,
    verify_vanishing,
)

_SOLVED: dict[int, tuple] = {}


def solved_chain(k: int):
    if k not in _SOLVED:
        mc = chain_mod.build_chain(k)
        _SOLVED[k] = (mc, chain_mod.stationary(mc))
    return _SOLVED[k]


def announce(num: int, ok: bool, detail: str):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_k3_stationary_exact():
    t0 = time.perf_counter()
    mc, pi = solved_chain(3)
    expected = {
        EMPTY: Fraction(3, 20),
        (1,): Fraction(4, 20),
        (1, 1): Fraction(3, 20),
        (2,): Fraction(3, 20),
        (2, 1): Fraction(4, 20),
        (2, 1, 1): Fraction(3, 20),
    }
    elapsed = time.perf_counter() - t0
    ok = all(pi.of(s) == v for s, v in expected.items()) and elapsed < 1.0
    announce(1, ok, f"k=3 stationary (3,4,3,3,4,3)/20, {elapsed:.3f}s")


def test_criterion_2_k4_stationary_table():
    t0 = time.perf_counter()
    mc, pi = solved_chain(4)
    table = {
        EMPTY: 8, (1,): 14, (1, 1): 12, (1, 1, 1): 8,
        (2,): 12, (2, 1): 16, (2, 1, 1): 15, (2, 1, 1, 1): 12,
        (2, 2): 8, (2, 2, 1): 12, (2, 2, 1, 1): 15, (2, 2, 1, 1, 1): 8,
        (3, 2, 2, 1, 1, 1): 8, (3, 2, 2, 1, 1): 14, (3, 2, 2, 1): 12,
        (3, 2, 2): 8, (3, 2, 1, 1, 1): 12, (3, 2, 1, 1): 16, (3, 2, 1): 15,
        (3, 2): 12, (3, 1, 1, 1): 8, (3, 1, 1): 12, (3, 1): 15, (3,): 8,
    }
    elapsed = time.perf_counter() - t0
    ok = (
        len(table) == 24
        and all(pi.of(s) == Fraction(v, 280) for s, v in table.items())
        and elapsed < 5.0
    )
    announce(2, ok, f"k=4 stationary x280 reproduces all 24 integers, {elapsed:.3f}s")


def test_criterion_3_lcds():
    t0 = time.perf_counter()
    expected = {3: 20, 4: 280, 5: 70560, 6: 310464}
    got = {}
    for k in (3, 4, 5, 6):
        mc, pi = solved_chain(k)
        got[k] = pi.lcd
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 600.0
    announce(3, ok, f"lcd(pi) = {got} for k=3..6, {elapsed:.1f}s")


def test_criterion_4_dimension_anchor():
    a = dimensions.strong_dim_raising((2, 1, 1), 3)
    b = dimensions.strong_dim_tableaux((2, 1, 1), 3)
    announce(4, a == b == 6, f"d((2,1,1)) at k=3: raising={a}, tableaux={b}")


def test_criterion_5_rho():
    all_ok = True
    detail = []
    for k in (2, 3, 4, 5):
        mc, pi = solved_chain(k)
        rho = chain_mod.rho_vector(mc, pi)
        target = Fraction(1, comb(k + 2, 3))
        # symmetry is theorem-grade
        assert all(rho[i - 1] == rho[k - i] for i in range(1, k + 1))
        conj_ok = all(r == target for r in rho)
        all_ok &= conj_ok
        detail.append(f"k={k}: rho_i={rho[0]} (conjecture {'PASS' if conj_ok else 'FAIL'})")
    announce(5, all_ok, "; ".join(detail))


def test_criterion_6_theorem_suite():
    failures = []
    for k in (2, 3, 4, 5):
        mc, pi = solved_chain(k)
        reports = [
            chain_mod.verify_pieri_row_sums(mc),
            chain_mod.verify_rate_one_over_k(mc),
            chain_mod.verify_conjugation_symmetry(mc, pi),
            chain_mod.verify_rho_symmetry(mc, pi),
            tasep.verify_tasep_equivalence(mc),
            tasep.verify_rectangle_jump(mc),
            simulate.verify_projection(k, 10),
        ]
        failures += [(k, r.name) for r in hard_failures(reports)]
    announce(6, not failures, f"theorem suite k<=5 ({'clean' if not failures else failures})")


def test_criterion_7_appendix_suite():
    reports = [
        verify_composition_sums(12),
        verify_inversion_expansion(max_t=5, vectors=100, seed=20260810),
        verify_interval_expansion(max_k=8),
        verify_vanishing(max_t=5, max_entry=4),
        verify_long_columns(4),
    ]
    bad = [r.name for r in reports if not r.passed]
    announce(7, not bad, f"appendix property suite ({'clean' if not bad else bad})")


def test_criterion_8_normalization_identities():
    ok = True
    for k in (3, 4):
        for n in range(1, 9):
            total = sum(
                weak_dim(lam, k) * dimensions.strong_dim_tableaux(lam, k)
                for lam in enumerate_bounded(k, n)
            )
            ok &= total == factorial(n)
    ok &= chain_mod.verify_stationarity_identity(3, 6).passed
    announce(8, ok, "sum w*d = n! for k=3,4, n<=8; one-step invariance k=3, n<=6")


def test_criterion_9_simulation():
    t0 = time.perf_counter()
    mc, pi = solved_chain(3)
    result = simulate.run_simulation(simulate.SimConfig(k=3, n=1_000_000, seed=1))
    elapsed = time.perf_counter() - t0

    rho_ok = bool(np.all(np.abs(result.rho_hat - 0.1) < 5e-3))

    occ_ok = True
    freq = result.occupancy / result.config.n
    for i in range(6):
        p = float(pi.values[i])
        se = math.sqrt(p * (1 - p) / result.config.n)
        occ_ok &= abs(freq[i] - p) <= 3 * se

    sup_deviation, _ = simulate.compare_to_limit(result.boundary, chain_mod.rho_vector(mc, pi))
    boundary_ok = sup_deviation < 0.02
    time_ok = elapsed < 60.0
    announce(
        9,
        rho_ok and occ_ok and boundary_ok and time_ok,
        "k=3 n=1e6 seed=1: rho within 5e-3 (%s), occupancy within 3 SE (%s), "
        "sup_dev=%.4f < 0.02 (%s), %.1fs"
        % (rho_ok, occ_ok, sup_deviation, boundary_ok, elapsed),
    )
