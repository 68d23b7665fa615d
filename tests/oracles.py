"""Test oracles shared by more than one test module."""

from coregrowth.partitions import Parts, conjugate, parts_from_multiplicities


def is_core(parts: Parts, r: int) -> bool:
    """True iff no cell has hook length exactly r."""
    if r < 2:
        raise ValueError("core parameter must be at least 2")
    conj = conjugate(parts)
    for i, p in enumerate(parts):
        for j in range(p):
            if (p - j) + (conj[j] - i) - 1 == r:
                return False
    return True


def rectangle(i: int, k: int) -> Parts:
    """The k-rectangle with parts i repeated k-i+1 times."""
    if not 1 <= i <= k:
        raise ValueError(f"rectangle type {i} out of range for k={k}")
    return (i,) * (k - i + 1)


def maximal_state(k):
    """The largest reduced state, with l_i = k-i throughout."""
    return parts_from_multiplicities(tuple(k - i for i in range(1, k + 1)))
