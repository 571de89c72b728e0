"""Time the numba kernels against their pure-numpy fallbacks, and the
growth kernel.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_kernels.py

Each kernel is timed on a realistic workload after a warm-up call (the
warm-up also absorbs numba's compilation cost). Results are printed as
a small table of best-of-repeats wall times plus the speedup ratio, and
the two paths' outputs are checked for bitwise agreement first. When
numba does not import, only the numpy path is timed. gn_links has one
implementation for both paths, so it is timed once, with no agreement
check.

For end-to-end and per-layer timings of the whole pipeline, use
`python3 perfbench/run.py --workload model --trace 1`.
"""

from __future__ import annotations

import time

import numpy as np

from prtail.accel import HAVE_NUMBA, get_impls, gn_links
from prtail.rng import stream

REPEATS = 5


def best_of(fn, *args) -> float:
    fn(*args)  # warm-up / compile
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def check_agreement(name: str, a, b) -> None:
    pair = zip(a, b) if isinstance(a, tuple) else ((a, b),)
    for left, right in pair:
        if not np.array_equal(left, right):
            raise SystemExit(f"{name}: paths disagree, benchmark aborted")


def workload_edge_push():
    rng = stream(1234, 0)
    n = 500_000
    m = 4_000_000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    weight = rng.random(n)
    return (src, dst, weight, n)


def workload_segment_sums():
    rng = stream(1234, 1)
    pool = rng.random(1_000_000)
    counts = rng.poisson(8.2, 1_000_000)
    idx = rng.integers(0, pool.size, int(counts.sum()))
    return (pool, idx, counts)


GN_LINKS_ARGS = (200_000, 8, 0.2, 987654321)

WORKLOADS = {
    "edge_push": workload_edge_push,
    "segment_sums": workload_segment_sums,
}


def main() -> int:
    numpy_impls = get_impls("numpy")
    if not HAVE_NUMBA:
        print("numba is not installed: timing the numpy path alone")
        print(f"{'kernel':<14} {'numpy':>10}")
        for name, build in WORKLOADS.items():
            t_np = best_of(numpy_impls[name], *build())
            print(f"{name:<14} {t_np * 1e3:>8.2f}ms")
    else:
        numba_impls = get_impls("numba")
        print(f"{'kernel':<14} {'numba':>10} {'numpy':>10} {'speedup':>9}")
        for name, build in WORKLOADS.items():
            args = build()
            check_agreement(name, numba_impls[name](*args), numpy_impls[name](*args))
            t_nb = best_of(numba_impls[name], *args)
            t_np = best_of(numpy_impls[name], *args)
            print(f"{name:<14} {t_nb * 1e3:>8.2f}ms {t_np * 1e3:>8.2f}ms {t_np / t_nb:>8.2f}x")
    t_gn = best_of(gn_links, *GN_LINKS_ARGS)
    print(f"{'gn_links':<14} {t_gn * 1e3:>8.2f}ms (one path)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
