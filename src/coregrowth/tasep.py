"""Cyclic-permutation picture of the finite chain.

A state is a permutation of 1..k+1 on a ring, written in one-line notation
with k+1 held in the last slot.  A value jumps by swapping with its cyclic
left neighbor whenever that neighbor is larger: ``jump``, which the
verifiers and the simulator read every move off.  ``alpha``/``alpha_inv``
realize the bijection with the reduced k-bounded partitions: value i is
placed l_i cyclic steps to the left of i+1, ignoring everything smaller.
The verifiers compare the jumps of each state's word with the moves of a
chain that ``chain.build_chain`` built, so they certify that chain itself.
They compare in word space: once ``alpha_inv`` is injective on the k!
states, a move matches a jump exactly when its target's word is the jumped
word, so no move is read back through ``alpha``.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING

from coregrowth.partitions import (
    Parts,
    check_reduced,
    multiplicities,
    parts_from_multiplicities,
)
from coregrowth.reporting import THEOREM, Report

if TYPE_CHECKING:
    from coregrowth.chain import MarkovChain

Word = tuple[int, ...]


def check_word(word) -> Word:
    w = tuple(int(x) for x in word)
    n = len(w)
    if sorted(w) != list(range(1, n + 1)) or n < 1 or w[-1] != n:
        raise ValueError(f"not a normalized word on 1..{n}: {w!r}")
    return w


def word_to_string(word: Word) -> str:
    return "-".join(map(str, word))


def word_from_string(text: str) -> Word:
    try:
        word = [int(x) for x in text.split("-")]
    except ValueError:
        raise ValueError(f"not a normalized word: {text!r}") from None
    return check_word(word)


@cache
def alpha_inv(parts: Parts, k: int) -> Word:
    """Recursive placement of k, k-1, ..., 1 around the ring."""
    parts = check_reduced(parts, k)
    l = multiplicities(parts, k)
    word = [k + 1]
    for i in range(k, 0, -1):
        word.insert((word.index(i + 1) - l[i - 1]) % len(word), i)
    return tuple(word)


def alpha(word: Word) -> Parts:
    """Inverse placement: read off each l_i among the values >= i."""
    word = check_word(word)
    k = len(word) - 1
    l = []
    for i in range(1, k + 1):
        sub = [v for v in word if v >= i]
        steps = (sub.index(i + 1) - sub.index(i) - 1) % len(sub)
        l.append(steps)
    return parts_from_multiplicities(l)


def jump(word: Word, value: int) -> tuple[int, Word] | None:
    """The move of ``value``: (the label it swaps with, the normalized word after).

    It swaps with its cyclic left neighbor, and None is returned if that is
    smaller.  ``word[idx - 1]`` wraps the first slot to k+1: the one jump over
    k+1, which turns the ring by one slot when the word is normalized again.
    """
    idx = word.index(value)
    left = word[idx - 1]
    if left <= value:
        return None
    if idx:
        return left, word[: idx - 1] + (value, left) + word[idx + 1 :]
    return left, word[1:-1] + (value, left)


def jumps(word: Word) -> list[tuple[int, Word]]:
    """All admissible moves (value, resulting normalized word)."""
    word = check_word(word)
    hits = ((value, jump(word, value)) for value in range(1, len(word)))
    return [(value, hit[1]) for value, hit in hits if hit]


# --- verifiers -------------------------------------------------------------

def verify_tasep_equivalence(mc: MarkovChain) -> Report:
    """The built chain's moves out of every state are the jumps of its word.

    Compared in word space: once ``alpha_inv`` is known to be injective on
    the k! states, it is a bijection onto the k! words, and a move agrees
    with a jump exactly when the target's word is the jumped word.
    """
    k = mc.k
    words = [alpha_inv(s, k) for s in mc.states]
    if len(set(words)) != len(words):
        return Report("tasep-equivalence", THEOREM, False, {"k": k}, {"injective": False})
    word_of = dict(zip(mc.states, words))
    bad = None
    for s, word, moves in zip(mc.states, words, mc.moves):
        chain_side = sorted((m.column, word_of[m.target]) for m in moves)
        tasep_side = jumps(word)
        if chain_side != tasep_side:
            bad = {
                "state": s,
                "chain": {m.column: m.target for m in moves},
                "tasep": {value: alpha(moved) for value, moved in tasep_side},
            }
            break
    return Report("tasep-equivalence", THEOREM, bad is None, {"k": k}, bad)


def verify_rectangle_jump(mc: MarkovChain) -> Report:
    """A move deletes the type-i rectangle iff i swaps past i+1 on the ring."""
    k = mc.k
    bad = None
    for s, moves in zip(mc.states, mc.moves):
        word = alpha_inv(s, k)
        for m in moves:
            hit = jump(word, m.column)
            swaps_next = hit is not None and hit[0] == m.column + 1
            if m.removed != (m.column if swaps_next else None):
                bad = {"state": s, "column": m.column, "removed": m.removed}
                break
        if bad:
            break
    return Report("rectangle-jump-witness", THEOREM, bad is None, {"k": k}, bad)
