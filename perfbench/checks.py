"""Output checkers for the benchmark workloads.

Each checker reads what one program run wrote and raises CheckError at
the first property that does not hold. The references are computed
here, apart from the program: closed forms in mpmath, counts taken
again from the sample files, Hill estimates recomputed from the
samples, a scipy.sparse residual of the PageRank equation. Nothing is
compared with stored copies of earlier outputs.

run.py checks a round in a separate process, so that the timing
process stays small:

    python3 perfbench/checks.py WORKLOAD SEED ROUND_DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import mpmath
import numpy as np
import scipy.sparse

import workloads as w

# CLI defaults the workloads rely on: the tail-fit fraction of
# `--xmin-fraction` and the per-node tolerance of `pagerank --tol`
TOP_FRACTION = 0.1
PAGERANK_TOL = 1e-10

# tolerances of the oracle checks; README.md justifies each
LST_TABLE_TOL = 1e-8
LST_MEAN_TOL = 1e-4
LST_SECOND_MOMENT_RTOL = 1e-2

mpmath.mp.dps = 40


class CheckError(Exception):
    """An output file breaks a property the method guarantees."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_text(path: str) -> tuple[list[str], str]:
    """Leading '#' header lines and the remaining body of a text file."""
    require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        text = fh.read()
    header, pos = [], 0
    while text.startswith("#", pos):
        end = text.index("\n", pos)
        header.append(text[pos:end])
        pos = end + 1
    return header, text[pos:]


def numbers(body: str, columns: int, dtype=float) -> np.ndarray:
    """Whitespace- or comma-separated numbers as a (rows, columns) array."""
    values = np.array(body.replace(",", " ").split(), dtype=dtype)
    require(values.size % columns == 0, f"ragged table with {columns} columns")
    return values.reshape(-1, columns) if columns > 1 else values


def read_json(path: str) -> dict:
    require(os.path.isfile(path), f"missing output {os.path.basename(path)}")
    with open(path) as fh:
        return json.load(fh)


def header_fields(header: list[str]) -> dict:
    fields = {}
    for line in header:
        key, sep, value = line[1:].partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def read_samples(path: str, dtype=float) -> np.ndarray:
    header, body = read_text(path)
    values = numbers(body, 1, dtype)
    require(
        int(header_fields(header).get("count", -1)) == values.size,
        f"{os.path.basename(path)}: header count differs from the number of values",
    )
    return values


def check_manifest(out_dir: str, command: str, parameters: dict) -> None:
    """The manifest lists exactly the files present and the given parameters."""
    manifest = read_json(os.path.join(out_dir, "manifest.json"))
    require(manifest.get("command") == command, f"manifest command is not {command!r}")
    require(
        manifest.get("outputs") == sorted(os.listdir(out_dir)),
        "manifest outputs differ from the files written",
    )
    recorded = manifest.get("parameters", {})
    for key, value in parameters.items():
        require(recorded.get(key) == value, f"manifest parameter {key} is not {value!r}")


def check_ccdf(values: np.ndarray, csv_path: str, loglog_path: str) -> None:
    """Every row's p is the fraction of samples >= its x; the log-log
    file holds the log10 of the rows with x > 0."""
    _, body = read_text(csv_path)
    _, _, rows = body.partition("\n")
    require(body.startswith("x,p\n"), f"{os.path.basename(csv_path)}: missing x,p header")
    table = numbers(rows, 2)
    x, p = table[:, 0], table[:, 1]
    require(np.all(np.diff(x) > 0), f"{os.path.basename(csv_path)}: x not strictly increasing")
    ordered = np.sort(values)
    at_least = values.size - np.searchsorted(ordered, x, side="left")
    bad = np.flatnonzero(p != at_least / values.size)
    if bad.size:
        raise CheckError(
            f"{os.path.basename(csv_path)}: {bad.size} rows whose p is not the fraction of "
            f"samples >= x, first at x={x[bad[0]]!r}"
        )
    _, body = read_text(loglog_path)
    loglog = numbers(body, 2)
    keep = x > 0
    require(
        loglog.shape[0] == int(keep.sum()),
        f"{os.path.basename(loglog_path)}: row count differs from the positive CCDF rows",
    )
    gap = np.abs(loglog - np.log10(table[keep])).max(initial=0.0)
    require(gap <= 1e-12, f"{os.path.basename(loglog_path)}: log10 columns off by {gap:.3g}")


def hill(values: np.ndarray, fraction: float = TOP_FRACTION) -> tuple[float, int, float]:
    """(x_min, n_tail, alpha): CCDF-index MLE over the top fraction."""
    k = max(1, math.ceil(fraction * values.size))
    x_min = float(np.partition(values, values.size - k)[values.size - k])
    tail = values[values >= x_min]
    alpha = tail.size / math.fsum(np.log(tail / x_min))
    return x_min, int(tail.size), alpha


def check_tail_fit(values: np.ndarray, path: str) -> None:
    fit = read_json(path)
    x_min, n_tail, alpha = hill(values)
    name = os.path.basename(path)
    require(fit["x_min"] == x_min, f"{name}: x_min {fit['x_min']!r} is not {x_min!r}")
    require(fit["n_tail"] == n_tail, f"{name}: n_tail {fit['n_tail']} is not {n_tail}")
    require(
        math.isclose(fit["alpha_ccdf"], alpha, rel_tol=1e-9),
        f"{name}: alpha_ccdf {fit['alpha_ccdf']!r} differs from the Hill estimate {alpha!r}",
    )
    require(
        math.isclose(fit["stderr"], alpha / math.sqrt(n_tail), rel_tol=1e-9),
        f"{name}: stderr is not alpha/sqrt(n_tail)",
    )


def log10_y(c: float, d: float, alpha: float) -> float:
    """log10 of y(c) = c^alpha / (d^alpha - c^alpha d), in 40-digit arithmetic."""
    c, d, alpha = mpmath.mpf(c), mpmath.mpf(d), mpmath.mpf(alpha)
    return float(mpmath.log10(c**alpha / (d**alpha - c**alpha * d)))


def check_prediction(c, d, alpha, predicted, observed, difference, where: str) -> None:
    expected = log10_y(c, d, alpha)
    require(
        abs(predicted - expected) <= 1e-12,
        f"{where}: predicted_log10_y {predicted!r} is not log10 y(c) = {expected!r}",
    )
    if observed is None or math.isnan(observed):
        # no shared tail band: the program reports no offset and no difference
        require(difference is None or math.isnan(difference), f"{where}: difference without an offset")
    else:
        require(difference == observed - predicted, f"{where}: difference is not observed - predicted")


def check_diagnostics(path: str, r: np.ndarray, generations: int) -> None:
    _, body = read_text(path)
    head, _, rows = body.partition("\n")
    require(head.startswith("generation,mean,ks,max"), "diagnostics.csv: bad header")
    table = numbers(rows, len(head.split(",")))
    require(
        np.array_equal(table[:, 0], np.arange(1, generations + 1)),
        "diagnostics.csv: not one row per generation",
    )
    require(np.all((table[:, 2] >= 0) & (table[:, 2] <= 1)), "diagnostics.csv: KS outside [0, 1]")
    last = table[-1]
    require(math.isclose(last[1], r.mean(), rel_tol=1e-12), "diagnostics.csv: final mean is not mean R")
    top = np.sort(r)[::-1][: table.shape[1] - 3]
    require(np.array_equal(last[3:], top), "diagnostics.csv: final top values are not the largest R")


def check_model(
    out_dir: str, c: float, d: float, alpha: float, pool: int, generations: int, seed: int
) -> None:
    """Outputs of `prtail model`."""
    check_manifest(
        out_dir,
        "model",
        {"c": c, "d": d, "alpha": alpha, "pool": pool, "generations": generations, "seed": seed},
    )
    r = read_samples(os.path.join(out_dir, "r_samples.txt"))
    n = read_samples(os.path.join(out_dir, "n_samples.txt"), np.int64)
    require(r.size == n.size == pool, "R and N samples are not one per pool member")
    # both files come from the final generation's counts, so r_i pairs
    # with n_i; with c = 0.5 the bound is exact in floating point
    bound = (1.0 - c) * (1.0 + (c / d) * n)
    below = np.flatnonzero(r < bound)
    if below.size:
        raise CheckError(f"{below.size} R samples below (1-c)(1+(c/d)n), first at index {below[0]}")
    for prefix, values in (("r", r), ("n", n)):
        check_ccdf(
            values,
            os.path.join(out_dir, f"{prefix}_ccdf.csv"),
            os.path.join(out_dir, f"{prefix}_ccdf_loglog.txt"),
        )
        check_tail_fit(values, os.path.join(out_dir, f"{prefix}_tail_fit.json"))
    check_diagnostics(os.path.join(out_dir, "diagnostics.csv"), r, generations)
    offset = read_json(os.path.join(out_dir, "offset.json"))
    require((offset["c"], offset["d"], offset["alpha"]) == (c, d, alpha), "offset.json: wrong parameters")
    check_prediction(
        c, d, alpha, offset["predicted_log10_y"], offset["observed_offset"], offset["difference"], "offset.json"
    )


def check_compare(
    out_dir: str, c_grid: list, d: float, alpha: float, pool: int, generations: int, seed: int
) -> None:
    """Outputs of `prtail compare`: one row per c, prediction and difference."""
    check_manifest(
        out_dir,
        "compare",
        {"c": c_grid, "d": d, "alpha": alpha, "pool": pool, "generations": generations, "seed": seed},
    )
    _, body = read_text(os.path.join(out_dir, "compare.csv"))
    head, _, rows = body.partition("\n")
    require(head == "c,predicted_log10_y,observed_offset,difference", "compare.csv: bad header")
    table = numbers(rows, 4)
    require(list(table[:, 0]) == c_grid, "compare.csv: not one row per c of the grid")
    for c, predicted, observed, difference in table:
        check_prediction(c, d, alpha, predicted, observed, difference, f"compare.csv c={float(c)!r}")


def check_edges(out_dir: str, n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Outputs of `prtail generate-gn`: out-degree d, no self-loops or repeats."""
    check_manifest(out_dir, "generate-gn", {"d": d, "n": n, "seed": seed})
    header, body = read_text(os.path.join(out_dir, "edges.txt"))
    require(header == [f"# directed edge list: {n} nodes, {n * d} edges"], "edges.txt: bad header")
    edges = numbers(body, 2, np.int64)
    src, dst = edges[:, 0], edges[:, 1]
    require(edges.min() >= 0 and edges.max() < n, "edges.txt: node id outside [0, n)")
    require(np.all(np.bincount(src, minlength=n) == d), f"edges.txt: a node has out-degree other than {d}")
    require(not np.any(src == dst), "edges.txt: self-loop")
    require(np.unique(src * n + dst).size == src.size, "edges.txt: repeated edge")
    return src, dst


def check_pagerank(out_dir: str, src: np.ndarray, dst: np.ndarray, n: int, c: float) -> None:
    """Outputs of `prtail pagerank` on a graph without dangling nodes."""
    check_manifest(out_dir, "pagerank", {"c": c, "graph": "edges.txt", "tol": PAGERANK_TOL})
    header, body = read_text(os.path.join(out_dir, "pagerank.txt"))
    fields = header_fields(header)
    require(fields.get("c") == repr(c) and fields.get("converged") == "true", "pagerank.txt: bad header")
    table = numbers(body, 2)
    require(np.array_equal(table[:, 0], np.arange(n)), "pagerank.txt: not one value per node")
    pr = table[:, 1]
    require(np.all(pr >= 1.0 - c), "pagerank.txt: a value below 1-c")
    require(abs(math.fsum(pr) - n) <= 1e-9 * n, f"pagerank.txt: values sum to {math.fsum(pr)!r}, not {n}")
    out_degree = np.bincount(src, minlength=n)
    transition = scipy.sparse.csr_matrix((1.0 / out_degree[src], (dst, src)), shape=(n, n))
    residual = float(np.abs(pr - (c * (transition @ pr) + (1.0 - c))).sum())
    require(
        residual <= c * PAGERANK_TOL * n,
        f"pagerank.txt: equation residual {residual:.3g} above c*tol*n = {c * PAGERANK_TOL * n:.3g}",
    )
    check_ccdf(
        pr, os.path.join(out_dir, "pagerank_ccdf.csv"), os.path.join(out_dir, "pagerank_ccdf_loglog.txt")
    )
    check_tail_fit(pr, os.path.join(out_dir, "pagerank_tail_fit.json"))


def pareto_scale(alpha: float, d: float):
    """Scale m of the Pareto law with index alpha and mean d: d(alpha-1)/alpha."""
    return mpmath.mpf(d) * (mpmath.mpf(alpha) - 1) / alpha


def pareto_lst_reference(alpha: float, x_scale, w: float) -> float:
    """E exp(-wT) for Pareto(alpha, m): alpha (mw)^alpha Gamma(-alpha, mw)."""
    mw = mpmath.mpf(x_scale) * mpmath.mpf(w)
    return float(alpha * mw**alpha * mpmath.gammainc(-alpha, mw))


def check_oracle(results: dict, alphas, c_grid, d: float, points) -> None:
    """Transform tables against mpmath, moments against closed forms."""
    tables = {row["alpha"]: row for row in results["tables"]}
    require(sorted(tables) == sorted(alphas), "oracle: not one table per alpha")
    for alpha in alphas:
        row = tables[alpha]
        m = pareto_scale(alpha, d)
        require(abs(row["x_scale"] - m) <= 1e-14 * m, f"oracle: x_scale at alpha={alpha} is not d(alpha-1)/alpha")
        require(row["w"] == list(points), f"oracle: table at alpha={alpha} read at other points")
        for w, f in zip(row["w"], row["f"]):
            ref = pareto_lst_reference(alpha, m, w)
            require(
                abs(f - ref) <= LST_TABLE_TOL,
                f"oracle: transform at alpha={alpha}, w={w!r} is {f!r}, mpmath gives {ref!r}",
            )
    solves = {(row["alpha"], row["c"]): row for row in results["solves"]}
    require(sorted(solves) == sorted((a, c) for a in alphas for c in c_grid), "oracle: missing solves")
    for (alpha, c), row in solves.items():
        where = f"oracle alpha={alpha} c={c}"
        require(row["sweeps"] >= 1, f"{where}: no sweeps")
        if alpha <= 2:
            continue
        require(abs(row["mean"] - 1.0) <= LST_MEAN_TOL, f"{where}: mean {row['mean']!r} is not 1")
        a, cc, dd = mpmath.mpf(alpha), mpmath.mpf(c), mpmath.mpf(d)
        mu2 = a * pareto_scale(alpha, d) ** 2 / (a - 2)
        eta2 = float((mu2 * cc**2 / dd**2 + 1 - cc**2) / (1 - cc**2 / dd))
        require(
            math.isclose(row["second_moment_prediction"], eta2, rel_tol=1e-12),
            f"{where}: second_moment_prediction {row['second_moment_prediction']!r} is not {eta2!r}",
        )
        require(
            math.isclose(row["second_moment"], eta2, rel_tol=LST_SECOND_MOMENT_RTOL),
            f"{where}: second moment {row['second_moment']!r} is not within "
            f"{LST_SECOND_MOMENT_RTOL} of {eta2!r}",
        )


def check_round(workload: str, seed: int, root: str) -> None:
    """Check the outputs of one round of a workload from workloads.py."""
    if workload == "model":
        check_model(os.path.join(root, "model"), seed=w.SAMPLING_SEED, **w.MODEL)
    elif workload == "compare":
        check_compare(os.path.join(root, "compare"), seed=w.SAMPLING_SEED, **w.COMPARE)
    elif workload == "graph":
        n, d = w.GROWTH["n"], w.GROWTH["d"]
        src, dst = check_edges(os.path.join(root, "gn"), n=n, d=d, seed=seed)
        check_pagerank(os.path.join(root, "pagerank"), src, dst, n=n, c=w.PAGERANK_C)
    else:
        results = read_json(os.path.join(root, "oracle", "oracle.json"))
        check_oracle(results, points=w.oracle_points(seed), **w.ORACLE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check the outputs of one benchmark round.")
    parser.add_argument("workload", choices=sorted(w.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("round_dir")
    args = parser.parse_args(argv)
    try:
        check_round(args.workload, args.seed, args.round_dir)
    except (CheckError, ValueError, KeyError, IndexError, OSError) as exc:
        # a malformed file fails to parse: that too is a wrong output
        print(f"{args.workload}: output check failed: {exc!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
