"""Hot kernels: the bincount sums behind PageRank sweeps and pool
generations, and the growth kernel.

edge_push and segment_sums are single np.bincount calls, which
accumulate float64 weights in input order, exactly as an explicit
loop over the edges or picks would. gn_links is a Python loop over
uniforms drawn in blocks from its own legacy RandomState, so it never
touches the global np.random state.

perfbench/run.py --trace 1 reports the time spent in each kernel
(accel.edge_push_s, accel.segment_sums_s, accel.gn_links_s) inside
the benchmark workloads.
"""

from __future__ import annotations

from array import array
from itertools import chain

import numpy as np


def backend() -> str:
    """Name of the kernel path; numpy is the only one."""
    return "numpy"


def edge_push(src, dst, node_weight, n):
    """Accumulate node_weight[src[e]] into out[dst[e]] over all edges."""
    if src.shape[0] == 0:
        return np.zeros(n)
    return np.bincount(dst, weights=node_weight[src], minlength=n)


def segment_sums(pool, idx, counts):
    """Sum pool[idx] per segment; segment i covers counts[i] entries of idx."""
    n = counts.shape[0]
    if idx.shape[0] == 0:
        return np.zeros(n)
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    return np.bincount(seg, weights=pool[idx], minlength=n)


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
