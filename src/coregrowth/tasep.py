"""Cyclic-permutation picture of the finite chain.

A state is a permutation of 1..k+1 on a ring, written in one-line notation
with k+1 held in the last slot.  A value jumps by swapping with its cyclic
left neighbor whenever that neighbor is larger.  ``alpha``/``alpha_inv``
realize the bijection with the reduced k-bounded partitions: value i is
placed l_i cyclic steps to the left of i+1, ignoring everything smaller.
The verifiers compare the jumps of each state's word with the moves of a
chain that ``chain.build_chain`` built, so they certify that chain itself.
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
    return check_word(int(x) for x in text.split("-"))


@cache
def alpha_inv(parts: Parts, k: int) -> Word:
    """Recursive placement of k, k-1, ..., 1 around the ring."""
    parts = check_reduced(parts, k)
    l = multiplicities(parts, k)
    word = [k + 1]
    for i in range(k, 0, -1):
        gap = word.index(i + 1)
        for _ in range(l[i - 1]):
            gap = gap - 1 if gap > 0 else len(word) - 1
        word.insert(gap, i)
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


def jumps(word: Word) -> list[tuple[int, Word]]:
    """All admissible moves (value, resulting normalized word)."""
    word = check_word(word)
    n = len(word)
    out = []
    for idx in range(n - 1):
        value = word[idx]
        left = word[idx - 1] if idx else word[-1]
        if left <= value:
            continue
        if idx:
            moved = word[: idx - 1] + (value, left) + word[idx + 1 :]
        else:
            moved = word[1 : n - 1] + (value, word[-1])
        out.append((value, moved))
    return sorted(out)


def value_positions(word: Word) -> dict[int, int]:
    return {v: i + 1 for i, v in enumerate(word)}


# --- verifiers -------------------------------------------------------------

def verify_tasep_equivalence(mc: MarkovChain) -> Report:
    """The built chain's moves out of every state are the jumps of its word."""
    k = mc.k
    bad = None
    for s, moves in zip(mc.states, mc.moves):
        chain_side = sorted((m.column, m.target) for m in moves)
        tasep_side = [(value, alpha(moved)) for value, moved in jumps(alpha_inv(s, k))]
        if chain_side != tasep_side:
            bad = {"state": s, "chain": dict(chain_side), "tasep": dict(tasep_side)}
            break
    return Report("tasep-equivalence", THEOREM, bad is None, {"k": k}, bad)


def verify_rectangle_jump(mc: MarkovChain) -> Report:
    """A move deletes the type-i rectangle iff i swaps past i+1 on the ring."""
    k = mc.k
    bad = None
    for s, moves in zip(mc.states, mc.moves):
        word = alpha_inv(s, k)
        pos = value_positions(word)
        for m in moves:
            left = word[pos[m.column] - 2] if pos[m.column] >= 2 else word[-1]
            swaps_next = left == m.column + 1
            if m.removed != (m.column if swaps_next else None):
                bad = {"state": s, "column": m.column, "removed": m.removed}
                break
        if bad:
            break
    return Report("rectangle-jump-witness", THEOREM, bad is None, {"k": k}, bad)
