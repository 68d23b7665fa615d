import dataclasses
import functools
import json
import os
import random
import re
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from math import comb, factorial, isqrt, prod
from pathlib import Path

import pytest

from coregrowth import chain as chain_mod
from coregrowth import cli, simulate
from coregrowth.chain import (
    _PRIMES,
    MarkovChain,
    _closed_form_candidate,
    _rational_reconstruct,
    _solve_crt,
    _solve_fraction_gauss,
    _solve_mod_p,
    build_chain,
    chain_to_json,
    is_irreducible,
    k_plancherel,
    mk_constant,
    pi_csv,
    rho_vector,
    stationary,
    verify_complement,
    verify_conjugation_symmetry,
    verify_lcd_and_mk,
    verify_minimum,
    verify_normalization,
    verify_pieri_row_sums,
    verify_position_of_k,
    verify_rate_one_over_k,
    verify_rho_conjecture,
    verify_rho_symmetry,
    verify_stationarity_identity,
)
from coregrowth.dimensions import hook_dim, strong_dim_tableaux
from coregrowth.partitions import (
    EMPTY,
    complement,
    enumerate_reduced_states,
    factorial_index,
    k_conjugate,
)
from coregrowth.posets import enumerate_bounded
from coregrowth.reporting import InvariantError

import oracles

# Exact stationary values and edge rates of the six-state chain.
K3_PI = {
    EMPTY: Fraction(3, 20),
    (1,): Fraction(4, 20),
    (1, 1): Fraction(3, 20),
    (2,): Fraction(3, 20),
    (2, 1): Fraction(4, 20),
    (2, 1, 1): Fraction(3, 20),
}

K3_RATES = {
    (EMPTY, (1,)): Fraction(1),
    ((1,), (2,)): Fraction(1, 2),
    ((1,), (1, 1)): Fraction(1, 2),
    ((1, 1), (2, 1)): Fraction(2, 3),
    ((1, 1), EMPTY): Fraction(1, 3),
    ((2,), (2, 1)): Fraction(2, 3),
    ((2,), EMPTY): Fraction(1, 3),
    ((2, 1), (2, 1, 1)): Fraction(3, 4),
    ((2, 1), EMPTY): Fraction(1, 4),
    ((2, 1, 1), (2,)): Fraction(1, 3),
    ((2, 1, 1), (1,)): Fraction(1, 3),
    ((2, 1, 1), (1, 1)): Fraction(1, 3),
}

# Stationary vector of the 24-state chain, times its common denominator 280.
K4_PI_280 = {
    EMPTY: 8,
    (1,): 14,
    (1, 1): 12,
    (1, 1, 1): 8,
    (2,): 12,
    (2, 1): 16,
    (2, 1, 1): 15,
    (2, 1, 1, 1): 12,
    (2, 2): 8,
    (2, 2, 1): 12,
    (2, 2, 1, 1): 15,
    (2, 2, 1, 1, 1): 8,
    (3, 2, 2, 1, 1, 1): 8,
    (3, 2, 2, 1, 1): 14,
    (3, 2, 2, 1): 12,
    (3, 2, 2): 8,
    (3, 2, 1, 1, 1): 12,
    (3, 2, 1, 1): 16,
    (3, 2, 1): 15,
    (3, 2): 12,
    (3, 1, 1, 1): 8,
    (3, 1, 1): 12,
    (3, 1): 15,
    (3,): 8,
}


@pytest.fixture(scope="module")
def chain3():
    mc = build_chain(3)
    return mc, stationary(mc)


@pytest.fixture(scope="module")
def chain4():
    mc = build_chain(4)
    return mc, stationary(mc)


def matrix_rate(mc: MarkovChain, src, dst):
    row = mc.matrix[factorial_index(src, mc.k)]
    return row.get(factorial_index(dst, mc.k), Fraction(0))


def test_k3_edge_rates(chain3):
    mc, _pi = chain3
    for (src, dst), rate in K3_RATES.items():
        assert matrix_rate(mc, src, dst) == rate
    total_edges = sum(len(row) for row in mc.matrix)
    assert total_edges == len(K3_RATES)


def test_k3_stationary(chain3):
    _mc, pi = chain3
    for state, value in K3_PI.items():
        assert pi.of(state) == value
    assert pi.lcd == 20


def test_k4_stationary_table(chain4):
    _mc, pi = chain4
    assert pi.lcd == 280
    for state, num in K4_PI_280.items():
        assert pi.of(state) == Fraction(num, 280)


def test_k2_chain():
    mc = build_chain(2)
    pi = stationary(mc)
    assert matrix_rate(mc, EMPTY, (1,)) == 1
    assert matrix_rate(mc, (1,), EMPTY) == 1
    assert pi.values == [Fraction(1, 2), Fraction(1, 2)]
    rho = rho_vector(mc, pi)
    assert rho == [Fraction(1, 4), Fraction(1, 4)]


def test_irreducible(chain3, chain4):
    assert is_irreducible(chain3[0])
    assert is_irreducible(chain4[0])


def test_rho_k3(chain3):
    mc, pi = chain3
    rho = rho_vector(mc, pi)
    assert rho == [Fraction(1, 10)] * 3


def test_rho_conjecture_small():
    for k in (2, 3, 4):
        mc = build_chain(k)
        pi = stationary(mc)
        report = verify_rho_conjecture(mc, pi)
        assert report.passed
        assert rho_vector(mc, pi) == [Fraction(1, comb(k + 2, 3))] * k


def test_theorem_verifiers(chain3, chain4):
    for mc, pi in (chain3, chain4):
        assert verify_pieri_row_sums(mc).passed
        assert verify_rate_one_over_k(mc).passed
        assert verify_conjugation_symmetry(mc, pi).passed
        assert verify_rho_symmetry(mc, pi).passed


def test_conjecture_verifiers(chain3, chain4):
    for mc, pi in (chain3, chain4):
        assert verify_complement(mc, pi).passed
        assert verify_lcd_and_mk(mc, pi).passed
        assert verify_position_of_k(mc, pi).passed


def test_symmetry_verifiers_name_the_first_asymmetric_state(chain4):
    """pi moved at one state fails both verifiers at the first of it and its partner."""
    mc, pi = chain4
    s = (2, 1, 1)
    i = mc.state_index(s)
    conj = mc.state_index(k_conjugate(s, 4))
    assert conj != i
    values = list(pi.values)
    values[i] += 1
    skewed = chain_mod.StationaryDistribution(mc, values)
    report = verify_complement(mc, skewed)
    first = mc.states[min(i, len(values) - 1 - i)]
    assert not report.passed
    assert report.witness == {"state": first, "complement": complement(first, 4)}
    report = verify_conjugation_symmetry(mc, skewed)
    assert not report.passed and report.witness == {"state": mc.states[min(i, conj)]}


def test_minimum_verifier(chain3, chain4):
    r3 = verify_minimum(*chain3)
    assert r3.passed
    assert r3.details["min"] == "3/20"
    assert r3.details["multiplicity"] == 4
    r4 = verify_minimum(*chain4)
    assert r4.passed
    assert r4.details["min"] == "1/35"
    assert r4.details["multiplicity"] == 8
    # the minimizers fit l_i in {0, k-i}; the other reading fails
    assert r4.details["minimizers_match_l_in_{0,k-i}"] is True
    assert r4.details["minimizers_match_l_in_{0,i-1}"] is False


def test_mk_constant():
    assert mk_constant(3) == 240
    assert mk_constant(4) == 16800
    assert 240 % 20 == 0 and 16800 % 280 == 0


def test_rate_one_over_k_values(chain3):
    mc, _pi = chain3
    assert matrix_rate(mc, (1, 1), EMPTY) == Fraction(1, 3)
    assert matrix_rate(mc, (2, 1, 1), (2,)) == Fraction(1, 3)
    mc4 = build_chain(4)
    assert matrix_rate(mc4, (1, 1, 1), EMPTY) == Fraction(1, 4)


def test_k_plancherel():
    assert k_plancherel(3, 0) == {EMPTY: Fraction(1)}
    # equality regime: the ordinary measure d^2 / n!
    for lam, p in k_plancherel(5, 4).items():
        assert p == Fraction(hook_dim(lam) ** 2, factorial(4))
    assert sum(k_plancherel(3, 4).values()) == 1


def test_stationarity_identity():
    assert verify_stationarity_identity(3, 6).passed
    assert verify_stationarity_identity(4, 4).passed


def test_normalization():
    assert verify_normalization(3, 8).passed
    assert verify_normalization(4, 8).passed


@pytest.mark.parametrize("level", range(6))
def test_stationarity_identity_checks_exactly_levels_one_to_n(monkeypatch, level):
    """A rate made wrong into the partitions of size ``level`` fails the check iff 1 <= level <= 4."""
    rate = chain_mod.step_rate
    monkeypatch.setattr(
        chain_mod,
        "step_rate",
        lambda src, cover, k: rate(src, cover, k) * (2 if sum(cover) == level else 1),
    )
    report = verify_stationarity_identity(3, 4)
    assert report.passed == (not 1 <= level <= 4)
    assert report.witness is None or report.witness["n"] == level


@pytest.mark.parametrize("level", range(7))
def test_normalization_checks_exactly_levels_one_to_n_max(monkeypatch, level):
    """A weak count made wrong on the partitions of size ``level`` fails the check iff 1 <= level <= 5."""
    count = chain_mod.weak_dim
    monkeypatch.setattr(
        chain_mod, "weak_dim", lambda lam, k: count(lam, k) + (sum(lam) == level)
    )
    report = verify_normalization(3, 5)
    assert report.passed == (not 1 <= level <= 5)
    assert report.witness is None or report.witness["n"] == level


@functools.cache
def gauss_pi(k: int) -> list[Fraction]:
    """The reference pi of the k chain, by dense exact elimination (2 s at k = 5)."""
    return _solve_fraction_gauss(build_chain(k))


def test_crt_solver_matches_gauss():
    # Gauss is the oracle: the CRT solve is the only exact fallback.
    for k in (2, 3, 4, 5):
        assert _solve_crt(build_chain(k)) == gauss_pi(k)


def test_rational_reconstruct_finds_integers_and_refuses_residues_past_its_bound():
    """5 and 0 are their own fractions; a residue with no fraction inside sqrt(m/2) gives None.

    Every fraction returned maps back to its residue inside the bound.
    """
    m = _PRIMES[0] * _PRIMES[1]
    assert _rational_reconstruct(5, m) == Fraction(5)
    assert _rational_reconstruct(0, m) == 0
    bound = isqrt(m // 2)
    rng = random.Random(1)
    refused = 0
    for residue in (rng.randrange(m) for _ in range(2000)):
        q = _rational_reconstruct(residue, m)
        if q is None:
            refused += 1
        else:
            assert q.numerator * pow(q.denominator, -1, m) % m == residue
            assert abs(q.numerator) <= bound and q.denominator <= bound
    assert refused == 768


def test_solve_mod_p_swaps_rows_for_a_zero_pivot():
    """The first pivot of [[0, 1 | 3], [1, 0 | 5]] is zero, so the rows swap before it is used."""
    system = [{1: Fraction(1), 2: Fraction(3)}, {0: Fraction(1), 2: Fraction(5)}]
    assert _solve_mod_p(system, _PRIMES[0]) == [5, 3]


def test_build_chain_6_and_its_stationary_stay_in_their_memory_budget():
    """The traced peak of ``stationary(build_chain(6))`` in a fresh process stays under 7.0 MiB.

    It is 6.13 MiB (Python 3.11) now that the levels of cores keep no
    bounded partition, and was 8.63 MiB when they kept one per core.
    """
    code = (
        "import tracemalloc\n"
        "from coregrowth.chain import build_chain, stationary\n"
        "tracemalloc.start()\n"
        "stationary(build_chain(6))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 7.0 * 2**20


def test_chain_json_and_csv(chain3):
    mc, pi = chain3
    payload = json.loads(chain_to_json(mc, pi, []))
    assert payload["k"] == 3
    assert payload["lcd"] == 20
    assert len(payload["states"]) == 6
    assert len(payload["matrix"]) == 12
    assert payload["rho"] == ["1/10", "1/10", "1/10"]
    csv = pi_csv(mc, pi)
    assert csv.splitlines()[0] == "index,parts,numerator,denominator,value"
    assert len(csv.strip().splitlines()) == 7


def test_build_chain_rejects_small_k():
    with pytest.raises(ValueError):
        build_chain(1)


def test_build_chain_returns_one_read_only_chain_per_k():
    mc = build_chain(3)
    assert build_chain(3) is mc and build_chain(4) is not mc
    assert type(mc.moves) is tuple and all(type(row) is tuple for row in mc.moves)
    assert type(mc.matrix) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        mc.moves = ()
    # a chain built from copied moves is frozen as well, and leaves the shared one alone
    moves = [list(row) for row in mc.moves]
    moves[0].pop()
    changed = MarkovChain(mc.k, mc.states, moves)
    assert type(changed.moves[0]) is tuple and len(changed.moves[0]) == len(mc.moves[0]) - 1
    assert build_chain(3) is mc and len(mc.moves[0]) == len(moves[0]) + 1


def test_a_chain_is_built_from_its_moves_alone():
    """``index`` and ``matrix`` are derived, so a chain cannot be given rows apart from its moves."""
    assert [f.name for f in dataclasses.fields(MarkovChain) if f.init] == ["k", "states", "moves"]


def test_a_chain_changed_through_its_moves_is_one_chain():
    """pi, rho, the box flow and the simulator's thresholds all read the changed row of (2,)."""
    mc = build_chain(3)
    s = mc.state_index((2,))
    assert [(m.removed, m.rate) for m in mc.moves[s]] == [(3, Fraction(1, 3)), (None, Fraction(2, 3))]
    moves = [list(row) for row in mc.moves]
    moves[s] = [dataclasses.replace(m, rate=Fraction(1 if m.removed else 3, 4)) for m in moves[s]]
    changed = MarkovChain(mc.k, mc.states, moves)
    assert changed.matrix[s] == {mc.state_index(m.target): m.rate for m in changed.moves[s]}
    pi = stationary(changed)
    assert pi.values == _solve_fraction_gauss(changed) != stationary(mc).values
    flows = [
        sum(v * m.rate for v, row in zip(pi.values, changed.moves) for m in row if m.removed == t)
        for t in (1, 2, 3)
    ]
    assert rho_vector(changed, pi) == flows and flows[2] == Fraction(29, 322)
    assert verify_rho_symmetry(changed, pi).details["area_flow"] == "1"
    walk = simulate._sampling_tables(changed)
    first = sum(map(len, changed.moves[:s]))
    for u, j in ((0.2, 0), (0.3, 1), (0.9, 1)):  # thresholds 1/4 and 1, not 1/3 and 1
        assert walk.step_move[s, bisect_right(walk.breaks.tolist(), u)] == first + j


def test_a_chain_refuses_a_target_off_its_states_and_a_missing_row():
    mc = build_chain(3)
    moves = [list(row) for row in mc.moves]
    moves[1][0] = dataclasses.replace(moves[1][0], target=(3, 3))
    message = f"move {mc.states[1]!r} -> (3, 3) leaves the reduced states"
    with pytest.raises(InvariantError, match=re.escape(message)):
        MarkovChain(mc.k, mc.states, moves)
    for rows in (mc.moves[:-1], mc.moves + ((),)):
        with pytest.raises(InvariantError, match="rows of moves for 6 states"):
            MarkovChain(mc.k, mc.states, rows)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_state_index_is_the_factorial_index(k):
    mc = build_chain(k)
    assert [mc.state_index(s) for s in mc.states] == [factorial_index(s, k) for s in mc.states]
    assert mc.index == {s: factorial_index(s, k) for s in mc.states}


@pytest.mark.parametrize("parts", [(3,), (4, 1), (2, 2, 2), (1, 2)])
def test_state_index_of_a_non_state_raises_the_factorial_index_error(parts):
    mc = build_chain(3)
    with pytest.raises(ValueError) as today:
        factorial_index(parts, 3)
    with pytest.raises(ValueError, match=re.escape(str(today.value))):
        mc.state_index(parts)
    with pytest.raises(ValueError, match=re.escape(str(today.value))):
        stationary(mc).of(parts)


@pytest.mark.parametrize(
    "argv", [["chain", "--k", "4"], ["verify", "--k", "4", "--suite", "all"]], ids=["chain", "verify"]
)
def test_a_command_assembles_its_chain_once(monkeypatch, fresh_memos, capsys, argv):
    """The command and ``verify_projection`` both call ``build_chain``; one assembles.

    perfbench pins the two calls (``chain.build_chain.calls == 2``).
    """
    calls, assembled = [], []
    build, assemble = chain_mod.build_chain, chain_mod._assemble
    monkeypatch.setattr(chain_mod, "build_chain", lambda k: calls.append(k) or build(k))
    monkeypatch.setattr(chain_mod, "_assemble", lambda k: assembled.append(k) or assemble(k))
    assert cli.main(argv) == 0
    assert calls == [4, 4] and assembled == [4]


def test_row_sums_exact():
    for k in (2, 3, 4):
        mc = build_chain(k)
        for row in mc.matrix:
            assert sum(row.values()) == 1


def test_build_chain_certifies_each_row_in_integers(monkeypatch, fresh_memos):
    """A row whose rates miss a move, or leave the denominator (|src| + 1) d(src), raises."""
    steps = chain_mod.growth_steps
    monkeypatch.setattr(chain_mod, "growth_steps", lambda parts, k: steps(parts, k)[:1])
    with pytest.raises(InvariantError, match=r"row of \(2,\) sums to 1/3, not 1"):
        build_chain(3)

    def scaled(parts, k):
        return [dataclasses.replace(m, rate=m.rate * Fraction(7, 11)) for m in steps(parts, k)]

    monkeypatch.setattr(chain_mod, "growth_steps", scaled)
    with pytest.raises(InvariantError, match=r"rate 7/11 of \(\) -> \(1,\) is not over 1"):
        build_chain(3)


@pytest.mark.parametrize("k", [3, 4])
def test_the_row_sums_refuse_a_wrong_d_on_any_state(monkeypatch, fresh_memos, k):
    """One state's d, one too large where the chain reads it, breaks a row sum.

    So the integer row check of ``build_chain`` catches a wrong d on any
    state: a state's d is the denominator of its row.
    """
    strong_dim = chain_mod.dimensions.strong_dim_tableaux
    for planted in enumerate_reduced_states(k):

        def wrong_at_planted(lam, k):
            return strong_dim(lam, k) + (lam == planted)

        monkeypatch.setattr(chain_mod.dimensions, "strong_dim_tableaux", wrong_at_planted)
        with pytest.raises(InvariantError, match=r"row of .* sums to .*, not 1"):
            build_chain(k)
    monkeypatch.setattr(chain_mod.dimensions, "strong_dim_tableaux", strong_dim)
    assert build_chain(k).size == factorial(k)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_every_target_is_the_states_own_tuple(k):
    """``growth_steps`` hands each move the state tuple itself, not an equal copy."""
    mc = build_chain(k)
    for moves in mc.moves:
        for move in moves:
            assert mc.states[mc.index[move.target]] is move.target


def test_certificate_rejects_each_kind_of_wrong_vector(chain3):
    """The integer certificate refuses a vector off by its sum, its sign or its balance."""
    mc, pi = chain3
    chain_mod._verify_stationary(mc, pi.values)
    a, b = mc.state_index((1,)), mc.state_index((2, 1, 1))

    def moved(mass):
        """pi with ``mass`` taken from state a to state b: the sum stays 1."""
        shift = {a: -mass, b: mass}
        return [v + shift.get(i, 0) for i, v in enumerate(pi.values)]

    cases = {
        "does not sum to 1": [v * 2 for v in pi.values],
        "non-positive": moved(pi.values[a]),
        "pi P != pi": moved(Fraction(1, 100)),
    }
    for message, wrong in cases.items():
        with pytest.raises(InvariantError, match=re.escape(message)):
            chain_mod._verify_stationary(mc, wrong)


def record_certificates(monkeypatch) -> list:
    """Replace the certificate by a wrapper that records every vector it checks."""
    calls = []
    check = chain_mod._verify_stationary

    def recording(chain, pi):
        calls.append(list(pi))
        check(chain, pi)

    monkeypatch.setattr(chain_mod, "_verify_stationary", recording)
    return calls


@pytest.mark.parametrize(
    "k, exact",
    [(k, _solve_fraction_gauss) for k in (2, 3, 4)] + [(k, _solve_crt) for k in (4, 5)],
)
def test_certified_candidate_equals_exact_solve(k, exact, monkeypatch):
    mc = build_chain(k)
    expected = exact(mc)
    # stationary accepts the candidate on the first certificate, with no exact solve
    calls = record_certificates(monkeypatch)
    monkeypatch.setattr(chain_mod, "_solve_crt", None)
    assert stationary(mc).values == expected
    assert calls == [expected]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_wrong_scale_candidate_falls_back(monkeypatch, k):
    """A candidate proportional to pi but not summing to 1 is rejected; the CRT solve certifies pi."""
    mc = build_chain(k)
    exact = gauss_pi(k)
    monkeypatch.setattr(chain_mod, "_solve_fraction_gauss", None)  # not a fallback
    closed_form = chain_mod._closed_form_candidate
    monkeypatch.setattr(chain_mod, "_closed_form_candidate", lambda c: [7 * v for v in closed_form(c)])
    calls = record_certificates(monkeypatch)
    assert stationary(mc).values == exact
    assert calls[0] == [7 * v for v in exact] != exact  # rejected
    assert calls[-1] == exact  # the CRT solve's reconstruction, certified


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_closed_form_equals_the_gauss_solve(k):
    """pi(s) = D(s) D(s^c) / Z with D(lam) = d(lam) / |lam|!, stated with Fractions."""
    mc = build_chain(k)

    def big_d(parts):
        return Fraction(strong_dim_tableaux(parts, k), factorial(sum(parts)))

    weights = [big_d(s) * big_d(complement(s, k)) for s in mc.states]
    z = sum(weights)
    expected = gauss_pi(k)
    assert [w / z for w in weights] == expected
    assert _closed_form_candidate(mc) == expected


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_dimensions_factor_over_a_rectangle(k):
    """d(lam u R_i) = C(|lam| + |R_i|, |R_i|) d(lam) d(R_i), the k-rectangle property.

    For every type i and every k-bounded lam of size at most 8.
    """
    cases = 0
    for i in range(1, k + 1):
        rect = oracles.rectangle(i, k)
        area, d_rect = sum(rect), strong_dim_tableaux(rect, k)
        for n in range(9):
            for lam in enumerate_bounded(k, n):
                union = tuple(sorted(lam + rect, reverse=True))
                product = comb(n + area, area) * strong_dim_tableaux(lam, k) * d_rect
                assert strong_dim_tableaux(union, k) == product, (lam, i)
                cases += 1
    assert cases == {2: 50, 3: 123, 4: 212, 5: 300}[k]  # 685 in all


def rectangle_product(k):
    """sf(k) prod_r D(R_r), with sf(k) = 1! 2! ... k! and D(lam) = d(lam) / |lam|!."""
    out = Fraction(prod(factorial(j) for j in range(1, k + 1)))
    for r in range(1, k + 1):
        rect = oracles.rectangle(r, k)
        out *= Fraction(strong_dim_tableaux(rect, k), factorial(sum(rect)))
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_the_normaliser_is_the_rectangle_product(k):
    """Conjecture check (README): Z = N! M_k sf(k) prod_r D(R_r) / (k+1).

    Z = sum_s C(N, |s|) d(s) d(s^c) is the sum that ``_closed_form_candidate``
    divides by, with N = C(k+1, 3).
    """
    mc = build_chain(k)
    total = comb(k + 1, 3)
    dims = [strong_dim_tableaux(s, k) for s in mc.states]
    z = sum(comb(total, sum(s)) * d * d_comp for s, d, d_comp in zip(mc.states, dims, reversed(dims)))
    assert z == factorial(total) * mk_constant(k) * rectangle_product(k) / (k + 1)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_mk_times_pi_is_an_integer_with_the_predicted_minimum(k):
    """Conjecture checks (README): A(s) = M_k pi(s) is an integer, least at (k+1) prod_j C(k, j)."""
    pi = stationary(build_chain(k))
    scaled = [mk_constant(k) * v for v in pi.values]
    assert all(a.denominator == 1 for a in scaled)
    assert min(scaled) == (k + 1) * prod(comb(k, j) for j in range(1, k + 1))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_complement_reverses_every_move(k):
    """s -> t grows column c and removes type r exactly when t^c -> s^c does."""
    mc = build_chain(k)
    comp = [mc.index[complement(s, k)] for s in mc.states]
    assert comp == list(reversed(range(mc.size)))
    moves = {(i, mc.index[m.target], m.column, m.removed) for i, ms in enumerate(mc.moves) for m in ms}
    assert {(comp[j], comp[i], c, r) for i, j, c, r in moves} == moves


def test_a_chain_without_the_conjugation_symmetry_falls_back(monkeypatch):
    """The closed form of a chain that is not this one is rejected; the CRT solve certifies pi."""
    mc = build_chain(3)
    src, two, one_one = (mc.state_index(s) for s in ((1,), (2,), (1, 1)))
    assert mc.matrix[src] == {two: Fraction(1, 2), one_one: Fraction(1, 2)}  # (1,) is self-conjugate
    moves = [list(row) for row in mc.moves]
    moves[src] = [
        dataclasses.replace(m, rate=Fraction(1 if m.target == (2,) else 2, 3)) for m in moves[src]
    ]
    skewed = MarkovChain(mc.k, mc.states, moves)
    assert skewed.matrix[src] == {two: Fraction(1, 3), one_one: Fraction(2, 3)}
    pi = stationary(mc)
    assert not verify_conjugation_symmetry(skewed, pi).passed
    exact = _solve_fraction_gauss(skewed)
    calls = record_certificates(monkeypatch)
    solved = []
    crt = chain_mod._solve_crt
    monkeypatch.setattr(chain_mod, "_solve_crt", lambda c: solved.append(c) or crt(c))
    assert stationary(skewed).values == exact
    assert calls[0] == _closed_form_candidate(skewed) == pi.values != exact  # rejected
    assert solved == [skewed]
    assert calls[-1] == exact  # the CRT solve's reconstruction, certified


def _reweighted(k: int, state, weight) -> MarkovChain:
    """The chain of ``build_chain(k)`` with the rates out of ``state`` set in proportion to ``weight``."""
    mc = build_chain(k)
    moves = [list(row) for row in mc.moves]
    i = mc.state_index(state)
    weights = [weight(m) for m in moves[i]]
    moves[i] = [dataclasses.replace(m, rate=Fraction(w, sum(weights))) for m, w in zip(moves[i], weights)]
    return MarkovChain(k, mc.states, moves)


@pytest.mark.parametrize(
    "k, changed, counts",
    [
        # (k, changed chain, calls of _solve_mod_p, _rational_reconstruct, _verify_stationary)
        (3, "readme", (2, 6, 2)),
        (3, "skew", (2, 6, 2)),
        (4, "readme", (2, 24, 2)),
        (4, "skew", (2, 24, 2)),
        (5, "readme", (6, 125, 2)),
        (5, "skew", (6, 167, 2)),
    ],
)
def test_the_crt_solve_of_a_changed_chain_makes_the_recorded_calls(monkeypatch, k, changed, counts):
    """Changed chains fall back to the CRT solve, which returns the Gauss pi.

    "readme" weighs the moves out of (2,) as the README does, 1 for the one
    that removes a rectangle and 3 for the others: 1/4 and 3/4 at k = 3,
    where (2,) -> () removes one, and 1/2 each at k = 4, 5.  "skew" gives
    (1,) the rates 1/3 and 2/3 of the conjugation-symmetry test.  The counts were
    recorded when each new prime recombined all the stored residues again;
    one CRT step per prime must make the same calls, including the
    reconstructions cut short at the first state that fails.
    """
    if changed == "readme":
        mc = _reweighted(k, (2,), lambda m: 1 if m.removed else 3)
    else:
        mc = _reweighted(k, (1,), lambda m: 1 if m.target == (2,) else 2)
    seen = {name: 0 for name in ("_solve_mod_p", "_rational_reconstruct", "_verify_stationary")}
    for name in seen:
        original = getattr(chain_mod, name)

        def counted(*args, _name=name, _original=original):
            seen[_name] += 1
            return _original(*args)

        monkeypatch.setattr(chain_mod, name, counted)
    assert stationary(mc).values == _solve_fraction_gauss(mc)
    assert tuple(seen.values()) == counts
