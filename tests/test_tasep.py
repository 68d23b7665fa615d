import dataclasses
from fractions import Fraction
from itertools import permutations

import pytest

from coregrowth import chain as chain_mod
from coregrowth import tasep
from coregrowth.chain import MarkovChain, Move, build_chain, growth_steps, step_target
from coregrowth.partitions import (
    EMPTY,
    bounded_to_core,
    check_reduced,
    complement,
    enumerate_reduced_states,
    multiplicities,
)
from coregrowth.posets import weak_covers_bounded
from coregrowth.reporting import InvariantError
from coregrowth.tasep import (
    alpha,
    alpha_inv,
    check_word,
    jump,
    jumps,
    verify_rectangle_jump,
    verify_tasep_equivalence,
    word_from_string,
    word_to_string,
)

from oracles import maximal_state


def reverse_word(word):
    """Read the ring backwards, keeping the largest value last."""
    word = check_word(word)
    return tuple(reversed(word[:-1])) + (word[-1],)


def normalize_word(word):
    """Rotate a cyclic arrangement so the largest value sits last."""
    w = tuple(word)
    top = w.index(len(w))
    return w[top + 1 :] + w[: top + 1]


def word_from_core(parts, k):
    """Label the residue classes of a (k+1)-core's bead set by frontier order.

    Beads sit at parts_i - i; each residue class mod k+1 is occupied below
    its frontier.  Classes ranked by ascending frontier give the values, and
    reading the classes in cyclic order gives the word.
    """
    r = k + 1
    ell = len(parts)
    tail_top = -(ell + 1)  # rows past the diagram contribute beads -(ell+1), ...
    frontiers = [tail_top - ((tail_top - c) % r) for c in range(r)]
    for i, p in enumerate(parts, start=1):
        b = p - i
        c = b % r
        if b > frontiers[c]:
            frontiers[c] = b
    order = sorted(range(r), key=lambda c: frontiers[c])
    label = [0] * r
    for rank, c in enumerate(order, start=1):
        label[c] = rank
    return normalize_word(tuple(label))


def alpha_via_core(parts, k):
    """Cross-check route for alpha_inv through the core's particle labels."""
    return word_from_core(bounded_to_core(check_reduced(parts, k), k), k)


# Word <-> state pairs of the 24-state table (word digits, state parts).
K4_WORDS = {
    "1234": EMPTY,
    "2341": (1,),
    "2314": (1, 1),
    "2134": (1, 1, 1),
    "3412": (2,),
    "3142": (2, 1),
    "1342": (2, 1, 1),
    "3421": (2, 1, 1, 1),
    "3124": (2, 2),
    "1324": (2, 2, 1),
    "3241": (2, 2, 1, 1),
    "3214": (2, 2, 1, 1, 1),
    "4321": (3, 2, 2, 1, 1, 1),
    "1432": (3, 2, 2, 1, 1),
    "4132": (3, 2, 2, 1),
    "4312": (3, 2, 2),
    "2143": (3, 2, 1, 1, 1),
    "2413": (3, 2, 1, 1),
    "2431": (3, 2, 1),
    "1243": (3, 2),
    "4213": (3, 1, 1, 1),
    "4231": (3, 1, 1),
    "1423": (3, 1),
    "4123": (3,),
}

K3_WORDS = {
    "123": EMPTY,
    "231": (1,),
    "213": (1, 1),
    "312": (2,),
    "132": (2, 1),
    "321": (2, 1, 1),
}


def word_of(digits: str, k: int):
    return tuple(int(c) for c in digits) + (k + 1,)


def test_alpha_examples():
    assert alpha(word_from_string("1-4-2-3-5")) == (3, 1)
    assert alpha_inv((3, 3, 1, 1), 5) == (4, 2, 3, 5, 1, 6)
    assert alpha_inv((2, 1), 3) == (1, 3, 2, 4)
    for k in (2, 3, 4, 5):
        assert alpha_inv(EMPTY, k) == tuple(range(1, k + 2))
        assert alpha_inv(maximal_state(k), k) == tuple(range(k, 0, -1)) + (k + 1,)


def test_k3_word_table():
    for digits, state in K3_WORDS.items():
        assert alpha_inv(state, 3) == word_of(digits, 3)
        assert alpha(word_of(digits, 3)) == state


def test_k4_word_table():
    for digits, state in K4_WORDS.items():
        assert alpha_inv(state, 4) == word_of(digits, 4)
        assert alpha(word_of(digits, 4)) == state


def test_alpha_round_trip():
    for k in range(1, 8):
        for s in enumerate_reduced_states(k):
            assert alpha(alpha_inv(s, k)) == s


def test_alpha_via_core_oracle():
    for k in range(1, 6):
        for s in enumerate_reduced_states(k):
            assert alpha_via_core(s, k) == alpha_inv(s, k)


def test_jumps_examples():
    assert jumps(word_of("312", 3)) == [
        (1, (1, 3, 2, 4)),
        (3, (1, 2, 3, 4)),
    ]
    # identity word: only the smallest value can move
    for k in (2, 3, 4):
        moves = jumps(tuple(range(1, k + 2)))
        assert [v for v, _w in moves] == [1]
    # reversed word: every value up to k can move
    moves = jumps(word_of("321", 3))
    assert [v for v, _w in moves] == [1, 2, 3]


def test_jump_is_the_ring_swap_on_every_word():
    """``jump`` against the rule restated on the ring, on every normalized
    word: a value jumps iff its cyclic left neighbour is larger, the word
    after is the swap of the two rotated to put k+1 last, and the one jump
    over k+1 is that of the value in the first slot."""
    for k in range(1, 6):
        r = k + 1
        for head in permutations(range(1, r)):
            word = head + (r,)
            over_top = []
            for value in range(1, r + 1):
                p = word.index(value)
                left = word[(p - 1) % r]
                ring = list(word)
                ring[p], ring[(p - 1) % r] = left, value
                hit = jump(word, value)
                assert hit == ((left, normalize_word(ring)) if left > value else None)
                if hit and hit[0] == r:
                    over_top.append(value)
            assert over_top == [word[0]]


def test_jump_count_matches_weak_covers():
    for k in range(2, 6):
        for s in enumerate_reduced_states(k):
            assert len(jumps(alpha_inv(s, k))) == len(weak_covers_bounded(s, k)) <= k


def test_reversal_is_complement():
    for k in range(2, 7):
        for s in enumerate_reduced_states(k):
            assert alpha(reverse_word(alpha_inv(s, k))) == complement(s, k)


def test_normalize_word():
    assert normalize_word((3, 5, 1, 4, 2)) == (1, 4, 2, 3, 5)
    assert normalize_word((4, 1, 2, 3)) == (1, 2, 3, 4)


def test_word_serialization():
    assert word_to_string((1, 4, 2, 3, 5)) == "1-4-2-3-5"
    assert word_from_string("1-4-2-3-5") == (1, 4, 2, 3, 5)
    big = tuple(range(1, 12))
    assert word_from_string(word_to_string(big)) == big
    with pytest.raises(ValueError):
        word_from_string("1-2-2-4")
    with pytest.raises(ValueError):
        word_from_string("2-3-1")  # largest value not last


def k1_chain() -> MarkovChain:
    """The one-state k=1 chain, from the growth steps ``build_chain`` reads.

    ``build_chain`` needs k >= 2, so the one state's steps are taken here:
    growing the empty partition completes the 1-rectangle, which is deleted.
    """
    (move,) = growth_steps(EMPTY, 1)
    assert move == Move(1, EMPTY, 1, Fraction(1))
    return MarkovChain(1, (EMPTY,), [[move]])


def test_equivalence_and_rectangle_witness():
    for mc in (k1_chain(), *(build_chain(k) for k in (2, 3, 4, 5))):
        assert verify_tasep_equivalence(mc).passed
        assert verify_rectangle_jump(mc).passed


def test_verifiers_read_the_chain_they_are_given():
    """A chain whose moves are not the word's jumps fails the verifiers."""
    mc = build_chain(3)
    moves = [list(row) for row in mc.moves]
    first, second = moves[1][:2]
    moves[1][0] = dataclasses.replace(first, column=second.column)
    moves[1][1] = dataclasses.replace(second, column=first.column)
    swapped = MarkovChain(mc.k, mc.states, moves)
    report = verify_tasep_equivalence(swapped)
    assert not report.passed and report.witness["state"] == mc.states[1]
    # a removal the word does not show fails the rectangle witness
    moves = [list(row) for row in mc.moves]
    i, j = next((i, j) for i, row in enumerate(moves) for j, m in enumerate(row) if m.removed)
    moves[i][j] = dataclasses.replace(moves[i][j], removed=None)
    assert not verify_rectangle_jump(MarkovChain(mc.k, mc.states, moves)).passed


def test_word_space_verifier_fails_on_a_tampered_target():
    """A move retargeted to another state is not its word's jump; one off the states is refused."""
    mc = build_chain(3)
    for wrong in (mc.states[0], (3, 3)):
        moves = [list(row) for row in mc.moves]
        i, j = next(
            (i, j) for i, row in enumerate(moves) for j, m in enumerate(row) if m.target != wrong
        )
        moves[i][j] = dataclasses.replace(moves[i][j], target=wrong)
        if wrong not in mc.index:  # the chain is refused when it is built
            with pytest.raises(InvariantError, match="leaves the reduced states"):
                MarkovChain(mc.k, mc.states, moves)
            continue
        report = verify_tasep_equivalence(MarkovChain(mc.k, mc.states, moves))
        assert not report.passed and report.witness["state"] == mc.states[i]
        assert report.witness["chain"][moves[i][j].column] == wrong


def test_word_space_verifier_needs_an_injective_alpha_inv(monkeypatch):
    """Words compare targets only while ``alpha_inv`` tells the states apart."""
    mc = build_chain(3)
    monkeypatch.setattr(tasep, "alpha_inv", lambda parts, k: (1, 2, 3, 4))
    report = verify_tasep_equivalence(mc)
    assert not report.passed and report.witness == {"injective": False}


def test_build_chain_certifies_box_conservation(monkeypatch, fresh_memos):
    """A move whose target misses the deleted rectangle's boxes raises."""
    steps = chain_mod.growth_steps
    monkeypatch.setattr(
        chain_mod,
        "growth_steps",
        lambda parts, k: [dataclasses.replace(m, removed=None) for m in steps(parts, k)],
    )
    with pytest.raises(InvariantError, match="does not conserve boxes"):
        build_chain(3)


def test_build_chain_certifies_that_every_target_is_a_state(monkeypatch, fresh_memos):
    """A move that keeps its full rectangle conserves boxes but reaches no reduced state.

    The tampered target rule grows the column on the multiplicities and
    deletes no rectangle.
    """

    def unreduced(l, column, k):
        grown = [m + (i == column - 1) - (i == column - 2) for i, m in enumerate(l)]
        return tuple(grown), None

    monkeypatch.setattr(chain_mod, "step_target", unreduced)
    with pytest.raises(InvariantError, match="leaves the reduced states"):
        build_chain(3)


@pytest.mark.parametrize("k", range(2, 8))
def test_each_jump_lands_on_the_growth_rules_target(k):
    """The jump of value c on a state's word is the word of ``step_target`` growing column c.

    ``tasep`` prints each jumped state this way, without reading the word back.
    """
    for head in permutations(range(1, k + 1)):
        word = head + (k + 1,)
        l = multiplicities(alpha(word), k)
        for value, moved in jumps(word):
            assert step_target(l, value, k)[0] == multiplicities(alpha(moved), k)


def test_alpha_inv_after_alpha_on_all_words():
    for k in range(1, 8):
        for head in permutations(range(1, k + 1)):
            word = head + (k + 1,)
            assert alpha_inv(alpha(word), k) == word
