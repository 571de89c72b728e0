"""Kernel dispatch: numba-compiled loops or pure-numpy fallbacks, and
the growth kernel.

The compiled path of edge_push and segment_sums is used when numba
imports cleanly and the environment variable PRTAIL_DISABLE_NUMBA is
unset (or set to one of "", "0", "false"). Set PRTAIL_DISABLE_NUMBA=1
to force the numpy path. Both paths produce bitwise-identical results:
the vectorized fallbacks (np.bincount) accumulate float64 values in the
same order as the explicit loops.

gn_links has one implementation on both backends: a Python loop over
uniforms drawn in blocks from its own legacy RandomState, so it never
touches the global np.random state.

benchmarks/bench_kernels.py times the two paths against each other via
get_impls().
"""

from __future__ import annotations

import os
from array import array
from itertools import chain

import numpy as np

from . import _kernels

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


def _flag_disabled() -> bool:
    return os.environ.get("PRTAIL_DISABLE_NUMBA", "0").strip().lower() not in ("", "0", "false")


USE_NUMBA = HAVE_NUMBA and not _flag_disabled()


def backend() -> str:
    """Name of the active kernel path, 'numba' or 'numpy'."""
    return "numba" if USE_NUMBA else "numpy"


def _edge_push_numpy(src, dst, node_weight, n):
    if src.shape[0] == 0:
        return np.zeros(n)
    return np.bincount(dst, weights=node_weight[src], minlength=n)


def _segment_sums_numpy(pool, idx, counts):
    n = counts.shape[0]
    if idx.shape[0] == 0:
        return np.zeros(n)
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    return np.bincount(seg, weights=pool[idx], minlength=n)


_NUMPY_IMPLS = {
    "edge_push": _edge_push_numpy,
    "segment_sums": _segment_sums_numpy,
}

_numba_impls: dict | None = None


def _build_numba_impls() -> dict:
    global _numba_impls
    if _numba_impls is None:
        if not HAVE_NUMBA:
            raise RuntimeError("numba is not available in this environment")
        jit = njit(cache=True)
        _numba_impls = {
            "edge_push": jit(_kernels.edge_push_loop),
            "segment_sums": jit(_kernels.segment_sums_loop),
        }
    return _numba_impls


def get_impls(which: str) -> dict:
    """Kernel table for an explicit path, 'numba' or 'numpy'."""
    if which == "numpy":
        return _NUMPY_IMPLS
    if which == "numba":
        return _build_numba_impls()
    raise ValueError(f"unknown kernel path {which!r}")


def edge_push(src, dst, node_weight, n):
    return get_impls(backend())["edge_push"](src, dst, node_weight, n)


def segment_sums(pool, idx, counts):
    return get_impls(backend())["segment_sums"](pool, idx, counts)


# uniforms drawn per refill; the legacy stream is the same whatever the
# block size, only memory and call overhead depend on it
_DRAW_BLOCK = 1 << 16


def _uniforms(seed):
    """The np.random.seed(seed); np.random.random() stream, one float
    per next() call, from a private RandomState."""
    rs = np.random.RandomState(seed)
    return chain.from_iterable(iter(lambda: rs.random_sample(_DRAW_BLOCK).tolist(), None)).__next__


def gn_links(n, d, beta, seed):
    """Edge arrays for the mixed uniform/preferential growth process.

    Nodes 0..d-1 exist at the start. Each later node t picks d distinct
    targets among the existing t nodes: uniform with probability beta,
    else proportional to current in-degree (uniform while all in-degrees
    are zero). In-degrees update only after all d links of a node are
    placed. At the end the first d nodes each link to d distinct
    uniformly random other nodes.

    Every growth attempt takes two uniforms of the legacy Mersenne
    Twister stream seeded with `seed`, and every closing attempt one,
    so the graph is a pure function of (n, d, beta, seed).
    """
    draw = _uniforms(seed)
    # targets in placement order; at node t the first (t-d)*d entries
    # are every earlier link, so a uniform pick among them is exactly an
    # in-degree-proportional pick
    dst = array("q")
    for t in range(d, n):
        n_hits = len(dst)
        chosen = []
        while len(chosen) < d:
            u = draw()
            x = draw()
            if u < beta or n_hits == 0:
                v = int(x * t)
                if v >= t:
                    v = t - 1
            else:
                h = int(x * n_hits)
                if h >= n_hits:
                    h = n_hits - 1
                v = dst[h]
            if v not in chosen:
                chosen.append(v)
        dst.extend(chosen)
    # closing wiring: out-degree d for the initial nodes, self excluded
    for i in range(d):
        chosen = []
        while len(chosen) < d:
            v = int(draw() * n)
            if v >= n:
                v = n - 1
            if v != i and v not in chosen:
                chosen.append(v)
        dst.extend(chosen)
    src = np.repeat(np.r_[d:n, 0:d], d)
    return src, np.frombuffer(dst, dtype=np.int64)
