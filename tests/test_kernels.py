"""The bincount kernels must agree bit for bit with their explicit
loops, and the growth kernel must reproduce its reference loop."""

import numpy as np
import pytest

from prtail import accel


def _edge_push_reference(src, dst, node_weight, n):
    """Accumulate node_weight[src[e]] into out[dst[e]] over all edges."""
    out = np.zeros(n)
    for e in range(src.shape[0]):
        out[dst[e]] += node_weight[src[e]]
    return out


def _segment_sums_reference(pool, idx, counts):
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


def test_edge_push_bitwise_parity():
    rng = np.random.default_rng(0)
    n = 500
    m = 4000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weight = rng.random(n)
    order = np.lexsort((dst, src))  # the graph module always sorts edges
    src, dst = src[order], dst[order]
    a = accel.edge_push(src, dst, weight, n)
    b = _edge_push_reference(src, dst, weight, n)
    assert np.array_equal(a, b)


def test_edge_push_empty_graph():
    empty = np.empty(0, dtype=np.int64)
    a = accel.edge_push(empty, empty, np.ones(3), 3)
    b = _edge_push_reference(empty, empty, np.ones(3), 3)
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.zeros(3))


def test_segment_sums_bitwise_parity():
    rng = np.random.default_rng(1)
    n = 300
    counts = rng.poisson(5.0, n)
    idx = rng.integers(0, 1000, counts.sum())
    pool = rng.random(1000)
    a = accel.segment_sums(pool, idx, counts)
    b = _segment_sums_reference(pool, idx, counts)
    assert np.array_equal(a, b)


def test_segment_sums_zero_counts():
    counts = np.array([0, 3, 0, 2])
    idx = np.array([0, 1, 2, 3, 4])
    pool = np.arange(5, dtype=float)
    a = accel.segment_sums(pool, idx, counts)
    b = _segment_sums_reference(pool, idx, counts)
    assert np.array_equal(a, b)
    assert np.array_equal(a, [0.0, 3.0, 0.0, 7.0])


def _gn_links_reference(n, d, beta, seed):
    """The growth kernel as one interpreted loop over np.random.random(),
    as it ran before it drew its uniforms in blocks; the global state is
    put back afterwards."""
    state = np.random.get_state()
    np.random.seed(seed)
    try:
        m = n * d
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        hits = np.empty(m, dtype=np.int64)
        n_hits = 0
        e = 0
        chosen = np.empty(d, dtype=np.int64)
        for t in range(d, n):
            picked = 0
            while picked < d:
                u = np.random.random()
                if u < beta or n_hits == 0:
                    v = int(np.random.random() * t)
                    if v >= t:
                        v = t - 1
                else:
                    h = int(np.random.random() * n_hits)
                    if h >= n_hits:
                        h = n_hits - 1
                    v = hits[h]
                duplicate = False
                for q in range(picked):
                    if chosen[q] == v:
                        duplicate = True
                        break
                if duplicate:
                    continue
                chosen[picked] = v
                picked += 1
            for q in range(d):
                src[e] = t
                dst[e] = chosen[q]
                hits[n_hits] = chosen[q]
                n_hits += 1
                e += 1
        for i in range(d):
            picked = 0
            while picked < d:
                v = int(np.random.random() * n)
                if v >= n:
                    v = n - 1
                if v == i:
                    continue
                duplicate = False
                for q in range(picked):
                    if chosen[q] == v:
                        duplicate = True
                        break
                if duplicate:
                    continue
                chosen[picked] = v
                picked += 1
            for q in range(d):
                src[e] = i
                dst[e] = chosen[q]
                e += 1
        return src, dst
    finally:
        np.random.set_state(state)


@pytest.mark.parametrize(
    "n,d,beta,seed",
    [
        (400, 4, 0.3, 12345),
        (300, 5, 0.0, 1),
        (300, 3, 1.0, 2),
        (200, 1, 0.5, 3),
        (2, 1, 0.5, 4),
        (150, 6, 0.7, 2**32 - 1),
    ],
)
def test_gn_links_bit_identical_to_reference(n, d, beta, seed):
    src, dst = accel.gn_links(n, d, beta, seed)
    ref_src, ref_dst = _gn_links_reference(n, d, beta, seed)
    assert src.dtype == dst.dtype == np.int64
    assert np.array_equal(src, ref_src)
    assert np.array_equal(dst, ref_dst)


def test_gn_links_bit_identical_across_a_block_refill():
    n, d = 5000, 8
    # two uniforms per growth attempt: the stream runs past the first block
    assert 2 * (n - d) * d > accel._DRAW_BLOCK
    src, dst = accel.gn_links(n, d, 0.2, 987654321)
    ref_src, ref_dst = _gn_links_reference(n, d, 0.2, 987654321)
    assert np.array_equal(src, ref_src)
    assert np.array_equal(dst, ref_dst)


def test_backend_reports_known_path():
    assert accel.backend() == "numpy"
