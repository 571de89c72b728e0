"""Growing directed network: preferential attachment mixed with
uniform attachment.

Starting from d isolated nodes, each new node links to d distinct
existing nodes; every link picks its target uniformly with
probability beta and in proportion to current in-degree otherwise.
Mixing in uniform choices lightens the in-degree tail, so beta tunes
the power-law exponent. The first d nodes are wired at the end so
that every node leaves with out-degree exactly d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accel
from .errors import ParameterError
from .graph import DirectedGraph, from_edges
from .rng import KEY_GROWTH, check_seed, kernel_seed


@dataclass(frozen=True)
class GrowthParams:
    beta: float
    d: int
    n_final: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.beta <= 1:
            raise ParameterError(f"beta must lie in [0, 1], got {self.beta}")
        if not isinstance(self.d, (int, np.integer)) or isinstance(self.d, bool) or self.d < 1:
            raise ParameterError(f"d must be a positive integer, got {self.d!r}")
        if self.n_final <= self.d:
            raise ParameterError(
                f"n_final must exceed d, got n_final={self.n_final} with d={self.d}"
            )
        check_seed(self.seed)


def generate(params: GrowthParams) -> DirectedGraph:
    """Grow the network; deterministic given params.seed.

    Every node has out-degree exactly d, no self-loops, and distinct
    targets within each node's d links.
    """
    src, dst = accel.gn_links(
        params.n_final,
        params.d,
        float(params.beta),
        kernel_seed(params.seed, KEY_GROWTH),
    )
    return from_edges(src, dst, n=params.n_final)

