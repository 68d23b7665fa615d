"""Exact arithmetic for the growth process on core partitions.

Subpackages cover partition primitives and the core/bounded bijections
(:mod:`~coregrowth.partitions`), weak and strong order posets
(:mod:`~coregrowth.posets`), the two dimension engines
(:mod:`~coregrowth.dimensions`), the finite exact Markov chain
(:mod:`~coregrowth.chain`), the cyclic-permutation TASEP picture
(:mod:`~coregrowth.tasep`) and the large-scale growth simulator
(:mod:`~coregrowth.simulate`).
"""

from coregrowth.partitions import (
    bounded_to_core,
    complement,
    conjugate,
    core_to_bounded,
    enumerate_reduced_states,
    factorial_index,
    hook_lengths,
    k_conjugate,
    reduce_rectangles,
)
from coregrowth.posets import enumerate_bounded, weak_covers_bounded, weak_dim
from coregrowth.dimensions import hook_dim, strong_dim_raising, strong_dim_tableaux
from coregrowth.chain import build_chain, k_plancherel, rho_vector, stationary

__version__ = "0.1.0"

__all__ = [
    "bounded_to_core",
    "build_chain",
    "complement",
    "conjugate",
    "core_to_bounded",
    "enumerate_bounded",
    "enumerate_reduced_states",
    "factorial_index",
    "hook_dim",
    "hook_lengths",
    "k_conjugate",
    "k_plancherel",
    "reduce_rectangles",
    "rho_vector",
    "stationary",
    "strong_dim_raising",
    "strong_dim_tableaux",
    "weak_covers_bounded",
    "weak_dim",
]
