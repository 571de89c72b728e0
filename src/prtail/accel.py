"""Hot kernels: the in-order sums behind PageRank sweeps and pool
generations, and the growth kernel.

Both sums add float64 values one at a time in input order, exactly as
an explicit loop over the edges or picks would. edge_push is one
np.bincount call, which starts each bin from 0.0. segment_sums serves
a grid of pools that share their picks, with one call per pool of
scipy's compiled CSR matrix-vector product csr_matvec: with the pick
indices as column indices, the segment offsets as row pointers and
every matrix entry 1.0, its loop is

    s = out[i]; for each pick j of segment i, in order: s += 1.0 * pool[j]; out[i] = s

1.0 * x is x exactly, so every pick is added into its output's running
sum, one at a time, in pick order. From 0.0 that is the same double as
bincount, and from a partial sum it continues that sum, so a segment
split across two calls ends on the same double as in one call. This
rule holds for each pool on its own, so each pool's sums are those of
a call with that pool alone. A bincount added to the partial sum
afterwards would not keep it: it rounds the new picks' subtotal first,
and (a + b) + c is not a + (b + c) in floating point. csr_matvec
checks no index and lets go of the GIL while it runs, so segment_sums
checks every bound before the call, and another thread computes
meanwhile. The kernel's extension module is loaded from its file at
the first call, without the scipy.sparse package, whose import costs
about 0.2 s and 20 MiB.
gn_links is a Python loop over uniforms drawn in blocks from its own
legacy RandomState, so it never touches the global np.random state.

perfbench/run.py --trace 1 reports the time spent in each kernel
(accel.edge_push_s, accel.segment_sums_s, accel.gn_links_s) inside
the benchmark workloads.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
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


def segment_sums(pools, idx, offsets, outs):
    """For each pool and its out, add pool[idx] into out in pick order;
    segment i, the entries offsets[i]..offsets[i+1]-1 of idx, adds into
    out[i], going on from the value there. offsets must run from 0 to
    len(idx) without a step down, each out must be a contiguous float64
    array of one entry per segment, and every index must lie in every
    pool; otherwise ValueError is raised before any sum is touched."""
    idx = np.asarray(idx).astype(np.intp, casting="same_kind", copy=False)
    offsets = np.asarray(offsets).astype(np.intp, casting="same_kind", copy=False)
    n_seg = offsets.size - 1
    if idx.ndim != 1 or offsets.ndim != 1 or n_seg < 0:
        raise ValueError("idx and offsets must be 1-d, offsets nonempty")
    if offsets[0] != 0 or offsets[-1] != idx.size or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"offsets must rise from 0 to {idx.size} without a step down")
    # a negative index reads as a huge unsigned one: one pass bounds both ends
    top = int(idx.view(np.uintp).max()) if idx.size else -1
    for pool, out in zip(pools, outs, strict=True):
        if top >= pool.size:
            raise ValueError(f"pick index outside a pool of {pool.size}")
        if out.dtype != np.float64 or out.shape != (n_seg,) or not out.flags.c_contiguous:
            raise ValueError(f"each out must be a contiguous float64 array of {n_seg} entries")
    kernel = _csr_matvec()
    ones = np.ones(idx.size)
    for pool, out in zip(pools, outs):
        kernel(n_seg, pool.size, offsets, idx, ones, pool, out)


@functools.cache
def _csr_matvec():
    """scipy's csr_matvec, from its extension module alone: loading the
    file registers scipy.sparse._sparsetools and imports nothing else."""
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "sparse") for d in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec("scipy.sparse._sparsetools", dirs)
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if hasattr(module, "csr_matvec"):
            return module.csr_matvec
    raise ImportError("segment_sums needs scipy.sparse._sparsetools.csr_matvec (scipy >= 1.10)")


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
