"""Loop kernels in numba-compilable form.

Every function here is plain Python over numpy arrays and compiles
under numba's nopython mode unchanged. The accel module decides per
process whether to run the compiled loops or its vectorized numpy
equivalents; see accel.py for the dispatch rules. The growth kernel
is not here: accel.gn_links is one implementation for both paths.
"""

from __future__ import annotations

import numpy as np


def edge_push_loop(src, dst, node_weight, n):
    """Accumulate node_weight[src[e]] into out[dst[e]] over all edges."""
    out = np.zeros(n)
    for e in range(src.shape[0]):
        out[dst[e]] += node_weight[src[e]]
    return out


def segment_sums_loop(pool, idx, counts):
    """Sum pool[idx] per segment; segment i covers counts[i] entries of idx."""
    out = np.empty(counts.shape[0])
    pos = 0
    for i in range(counts.shape[0]):
        s = 0.0
        for _ in range(counts[i]):
            s += pool[idx[pos]]
            pos += 1
        out[i] = s
    return out
