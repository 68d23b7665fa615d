"""Property suite for the raising-operator calculus.

Checks, over stated finite ranges: signed composition sums collapse to
1/m!, the inversion expansion of the pair triangle matches the naive subset
expansion and the Jacobi-Trudi determinant, the interval-run expansion
agrees on all-ones vectors (in both subset arities, which are reported
separately rather than silently merged), and the vanishing statements for
truncated vectors and long first columns.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial

from coregrowth.dimensions import (
    composition_sum,
    evaluate_displacements,
    inversion_displacements,
    long_column_vanishes,
    term_displacements,
    triangle_determinant,
    triangle_expand_intervals,
    triangle_expand_naive,
    triangle_vanishes,
)
from coregrowth.partitions import enumerate_reduced_states, multiplicities
from coregrowth.reporting import THEOREM, Report


def verify_composition_sums(max_m: int) -> Report:
    bad = None
    for m in range(1, max_m + 1):
        if composition_sum(m) != Fraction(1, factorial(m)):
            bad = {"m": m, "sum": str(composition_sum(m))}
            break
    return Report("composition-sums", THEOREM, bad is None, {"max_m": max_m}, bad)


def verify_inversion_expansion(max_t: int, vectors: int, seed: int) -> Report:
    """Inversion terms equal the full 2^C(t,2) subset expansion pointwise.

    The Jacobi-Trudi determinant that ``verify_vanishing`` evaluates must
    also equal the inversion expansion, for t = 2 .. max_t + 1 (the longest
    vector ``verify_vanishing(max_t, ...)`` evaluates).
    """
    bad = next(_inversion_mismatches(max_t, vectors, seed), None)
    return Report(
        "inversion-vs-naive-expansion",
        THEOREM,
        bad is None,
        {"max_t": max_t, "vectors": vectors, "determinant_t": [2, max_t + 1]},
        bad,
    )


def _inversion_mismatches(max_t: int, vectors: int, seed: int):
    """Yield {"t", "vec"} for each random vector on which an identity fails.

    The determinant's vectors come from a second generator, so the subset
    comparison sees the same vectors as it would alone.  They may have
    negative entries, whose zero diagonal entries make the elimination swap
    rows.
    """
    rng = random.Random(seed)
    for t in range(2, max_t + 1):
        inv = tuple(inversion_displacements(t))
        naive = tuple(term_displacements(triangle_expand_naive(t)))
        for _ in range(vectors):
            vec = tuple(rng.randint(0, 6) for _ in range(t))
            if evaluate_displacements(inv, vec) != evaluate_displacements(naive, vec):
                yield {"t": t, "vec": vec}
    det_rng = random.Random(seed + 1)
    for t in range(2, max_t + 2):
        inv = tuple(inversion_displacements(t))
        for _ in range(vectors):
            vec = tuple(det_rng.randint(-2, 6) for _ in range(t))
            if triangle_determinant(vec) != evaluate_displacements(inv, vec):
                yield {"t": t, "vec": vec}


def verify_interval_expansion(max_k: int) -> Report:
    """All three expansions agree (and equal 1) on the all-ones vector."""
    bad = None
    arities_agree = True
    for k in range(2, max_k + 1):
        ones = (1,) * (k - 1)
        by_inv = evaluate_displacements(inversion_displacements(k - 1), ones)
        by_short = evaluate_displacements(
            term_displacements(triangle_expand_intervals(k, universe=k - 1)), ones
        )
        by_full = evaluate_displacements(
            term_displacements(triangle_expand_intervals(k, universe=k)), ones
        )
        if by_short != by_full:
            arities_agree = False
        if not by_inv == by_short == 1:
            bad = {"k": k, "inversions": by_inv, "intervals": by_short, "full": by_full}
            break
    return Report(
        "interval-expansion-on-ones",
        THEOREM,
        bad is None,
        {"max_k": max_k, "subset_arities_agree": arities_agree},
        bad,
    )


def verify_vanishing(max_t: int, max_entry: int) -> Report:
    """Triangle evaluations vanish on both stated truncation regimes.

    A failing vector's witness names two rows i < j (1-based) with
    mu_i - i = mu_j - j: equal rows of its Jacobi-Trudi matrix, which is
    why the determinant should vanish.
    """
    bad = next(
        (
            {"case": case, "t": t, "mu": mu, "rows": _coinciding_rows(mu)}
            for case, t, mu in _vanishing_vectors(max_t, max_entry)
            if not triangle_vanishes(mu, t)
        ),
        None,
    )
    return Report(
        "triangle-vanishing",
        THEOREM,
        bad is None,
        {"max_t": max_t, "max_entry": max_entry},
        bad,
    )


def _vanishing_vectors(max_t: int, max_entry: int):
    """Yield (case, t, mu) for every vector of both truncation regimes."""
    for t in range(1, max_t + 1):
        # truncation (0, ..., 0, m) with 1 <= m <= t
        for m in range(1, t + 1):
            for c in range(0, max_entry - m + 1):
                yield "staircase-tail", t, (c,) * t + (c + m,)
        # non-zero truncation below the staircase
        for hat in _staircase_vectors(t, max_entry):
            for c in range(0, max_entry - max(hat) + 1):
                yield "below-staircase", t, tuple(h + c for h in hat)


def _coinciding_rows(mu) -> tuple[int, int] | None:
    """The first rows i < j (1-based) with mu_i - i = mu_j - j, if any."""
    first: dict[int, int] = {}
    for j, v in enumerate(mu, start=1):
        i = first.setdefault(v - j, j)
        if i != j:
            return i, j
    return None


def _staircase_vectors(t: int, max_entry: int):
    """Non-zero vectors with first entry 0 and i-th entry at most i-1."""
    entries = (range(min(i, max_entry) + 1) for i in range(t + 1))
    return [vec for vec in product(*entries) if any(vec)]


def verify_long_columns(max_k: int) -> Report:
    """Exhaustive vanishing for unit columns of height k-1 and k."""
    bad = next(
        (
            {"k": k, "partition": parts, "ones": ones}
            for k in range(2, max_k + 1)
            for state in enumerate_reduced_states(k)
            if multiplicities(state, k)[0] == k - 1
            # a column of k-1 ones, and the same state with one more
            for parts, ones in ((state, k - 1), (state + (1,), k))
            if not long_column_vanishes(parts, k)
        ),
        None,
    )
    return Report(
        "long-column-vanishing", THEOREM, bad is None, {"max_k": max_k}, bad
    )
