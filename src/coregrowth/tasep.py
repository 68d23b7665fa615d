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
    bounded_to_core,
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


def normalize_word(word) -> Word:
    """Rotate a cyclic arrangement so the largest value sits last."""
    w = tuple(word)
    top = w.index(len(w))
    return w[top + 1 :] + w[: top + 1]


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


def reverse_word(word: Word) -> Word:
    """Read the ring backwards, keeping the largest value last."""
    word = check_word(word)
    return tuple(reversed(word[:-1])) + (word[-1],)


def value_positions(word: Word) -> dict[int, int]:
    return {v: i + 1 for i, v in enumerate(word)}


# --- independent construction from the mod-(k+1) growth picture -----------

def word_from_core(parts: Parts, k: int) -> Word:
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


def alpha_via_core(parts: Parts, k: int) -> Word:
    """Cross-check route for alpha_inv through the core's particle labels."""
    return word_from_core(bounded_to_core(check_reduced(parts, k), k), k)


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
