"""Hot kernels: the in-order sums behind PageRank sweeps and pool
generations, and the growth kernel.

Both sums add float64 values one at a time in input order, exactly as
an explicit loop over the edges or picks would. edge_push is one
np.bincount call, which starts each bin from 0.0. segment_sums serves
a grid of pools that share their picks: it finds each pick's segment
once (one np.repeat), then per pool makes one gather and one np.add.at
call into that pool's sums. np.add.at starts each segment from the
value already there: from 0.0 it gives the same double as bincount,
and from a partial sum it continues that sum, so a segment split
across two calls ends on the same double as in one call. This rule
holds for each pool on its own, so each pool's sums are those of a
call with that pool alone. A bincount added to the partial sum
afterwards would not keep it: it rounds the new picks' subtotal first,
and (a + b) + c is not a + (b + c) in floating point. The pools stay
separate 1-d arrays: a gather from one (n, K) array timed slower.
gn_links is a Python loop over uniforms drawn in blocks from its own
legacy RandomState, so it never touches the global np.random state.

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


def segment_sums(pools, idx, counts, outs):
    """For each pool and its out, add pool[idx] into out in pick order;
    segment i, which covers counts[i] entries of idx, adds into out[i].
    The segment of each pick is found once for all pools."""
    seg = np.repeat(np.arange(counts.shape[0]), counts)
    for pool, out in zip(pools, outs):
        np.add.at(out, seg, pool[idx])


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
