"""Compiled and fallback kernel paths must agree bit for bit, and the\none growth kernel must reproduce its reference loop."""

import os
import subprocess
import sys

import numpy as np
import pytest

from prtail import accel

needs_numba = pytest.mark.skipif(not accel.HAVE_NUMBA, reason="numba not installed")


def _paths():
    return accel.get_impls("numpy"), accel.get_impls("numba")


@needs_numba
def test_edge_push_bitwise_parity():
    rng = np.random.default_rng(0)
    n = 500
    m = 4000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    weight = rng.random(n)
    order = np.lexsort((dst, src))  # the graph module always sorts edges
    src, dst = src[order], dst[order]
    numpy_impls, numba_impls = _paths()
    a = numpy_impls["edge_push"](src, dst, weight, n)
    b = numba_impls["edge_push"](src, dst, weight, n)
    assert np.array_equal(a, b)


@needs_numba
def test_edge_push_empty_graph():
    numpy_impls, numba_impls = _paths()
    empty = np.empty(0, dtype=np.int64)
    a = numpy_impls["edge_push"](empty, empty, np.ones(3), 3)
    b = numba_impls["edge_push"](empty, empty, np.ones(3), 3)
    assert np.array_equal(a, b)
    assert np.array_equal(a, np.zeros(3))


@needs_numba
def test_segment_sums_bitwise_parity():
    rng = np.random.default_rng(1)
    n = 300
    counts = rng.poisson(5.0, n)
    idx = rng.integers(0, 1000, counts.sum())
    pool = rng.random(1000)
    numpy_impls, numba_impls = _paths()
    a = numpy_impls["segment_sums"](pool, idx, counts)
    b = numba_impls["segment_sums"](pool, idx, counts)
    assert np.array_equal(a, b)


@needs_numba
def test_segment_sums_zero_counts():
    numpy_impls, numba_impls = _paths()
    counts = np.array([0, 3, 0, 2])
    idx = np.array([0, 1, 2, 3, 4])
    pool = np.arange(5, dtype=float)
    a = numpy_impls["segment_sums"](pool, idx, counts)
    b = numba_impls["segment_sums"](pool, idx, counts)
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
    assert accel.backend() in ("numba", "numpy")


def test_get_impls_rejects_unknown_path():
    with pytest.raises(ValueError):
        accel.get_impls("gpu")


def test_disable_flag_forces_numpy_backend():
    code = "import prtail.accel as a; print(a.backend())"
    env = dict(os.environ, PRTAIL_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "numpy"


@pytest.mark.parametrize("value", ["", "0", "false"])
def test_disable_flag_off_values_keep_default(value):
    code = "import prtail.accel as a; print(a.backend() == ('numba' if a.HAVE_NUMBA else 'numpy'))"
    env = dict(os.environ, PRTAIL_DISABLE_NUMBA=value)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "True"
