"""Command-line pipeline around the library.

Subcommands:
  pagerank      PageRank of an edge-list graph plus tail artifacts
  model         simulate the rank equation and compare tails with N(T)
  generate-gn   grow a mixed preferential/uniform attachment network
  compare       predicted vs observed tail offset over a damping grid

Every run writes a manifest.json recording command, parameters, and
library versions; identical parameters and seed reproduce every
output file byte for byte. Exit codes: 0 success, 2 parameter error,
3 I/O or parse error, 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import numpy
import scipy

from . import __version__
from .errors import DegenerateFitError, NumericError, ParameterError, ParseError
from .fixedpoint import (
    ModelParams,
    check_solve_args,
    final_generation_seed,
    save_diagnostics,
    solve_r,
)
from .graph import (
    DANGLING_POLICIES,
    check_pagerank_args,
    load_edge_list,
    pagerank,
    save_pagerank,
    write_edge_list,
)
from .growingnet import GrowthParams, generate
from .rvmodel import pareto_scale_for_mean
from .samples import save_samples
from .tailstats import (
    DEFAULT_TOP_FRACTION,
    ccdf,
    check_top_fraction,
    fit_tail_fraction,
    log_ccdf_offset,
    save_ccdf,
    save_ccdf_loglog,
    save_tail_fit,
)
from .theory import factor


def _versions() -> dict:
    return {
        "prtail": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(out_dir: str, command: str, parameters: dict, outputs: list) -> None:
    payload = {
        "command": command,
        "parameters": parameters,
        "versions": _versions(),
        "outputs": sorted(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save_tail_artifacts(values, table, prefix: str, out: str, fraction: float, outputs: list) -> None:
    save_ccdf(table, os.path.join(out, f"{prefix}_ccdf.csv"))
    save_ccdf_loglog(table, os.path.join(out, f"{prefix}_ccdf_loglog.txt"))
    outputs += [f"{prefix}_ccdf.csv", f"{prefix}_ccdf_loglog.txt"]
    try:
        fit = fit_tail_fraction(values, fraction)
    except DegenerateFitError as exc:
        print(f"note: skipping {prefix} tail fit ({exc})", file=sys.stderr)
        return
    save_tail_fit(fit, os.path.join(out, f"{prefix}_tail_fit.json"))
    outputs.append(f"{prefix}_tail_fit.json")


def _observed_offset(r_values, n_table):
    """Vertical log-log offset between the tail of R and the CCDF table
    of N, or None when the quantile band falls outside their common
    support (degenerate runs, e.g. c close to 0 where R collapses to a
    point mass)."""
    try:
        return log_ccdf_offset(ccdf(r_values), n_table)
    except ParameterError as exc:
        print(f"note: offset unavailable ({exc})", file=sys.stderr)
        return None


def _predicted_log10_y(grid: list) -> list:
    """log10 y(c) for every c of the grid; factor raises a ParameterError
    where y is not a positive finite double, so callers run this before
    they create the output directory."""
    return [math.log10(factor(p.c, p.d, p.alpha)) for p in grid]


def _run_model(grid: list, pool: int, generations: int, seed: int):
    """Solve for R at every c of the grid from one set of draws, and
    draw the grid's reference N(T) sample once; returns (N sample, its
    CCDF table, and per c a tuple of solve result and observed offset
    or None)."""
    model = grid[0].in_degree_model()
    results = solve_r(grid, model, pool_size=pool, generations=generations, seed=seed)
    # reference N(T) draws reuse the final generation's degree stream so
    # the offset comparison cancels shared extreme-draw noise
    n_values = model.sample(pool, final_generation_seed(seed, generations))
    n_table = ccdf(n_values)
    runs = [(result, _observed_offset(result.values, n_table)) for result in results]
    return n_values, n_table, runs


def cmd_pagerank(args) -> int:
    check_pagerank_args(args.c, tol=args.tol, dangling=args.dangling)
    check_top_fraction(args.xmin_fraction)
    g = load_edge_list(args.graph, keep_duplicates=args.keep_duplicates)
    pv = pagerank(g, c=args.c, tol=args.tol, dangling=args.dangling)
    out = args.out
    os.makedirs(out, exist_ok=True)
    outputs = ["pagerank.txt"]
    save_pagerank(pv, g, os.path.join(out, "pagerank.txt"))
    _save_tail_artifacts(pv.values, ccdf(pv.values), "pagerank", out, args.xmin_fraction, outputs)
    _write_manifest(
        out,
        "pagerank",
        {
            "graph": os.path.basename(args.graph),
            "c": args.c,
            "tol": args.tol,
            "dangling": args.dangling,
            "keep_duplicates": args.keep_duplicates,
            "xmin_fraction": args.xmin_fraction,
        },
        outputs + ["manifest.json"],
    )
    if not pv.converged:
        print(
            f"error: power iteration stopped at residual {pv.residual!r} "
            f"after {pv.iterations} iterations without reaching tolerance",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_model(args) -> int:
    params = ModelParams(c=args.c, d=args.d, alpha=args.alpha)
    check_solve_args(args.pool, args.generations, args.seed)
    check_top_fraction(args.xmin_fraction)
    [log10_y] = _predicted_log10_y([params])
    out = args.out
    os.makedirs(out, exist_ok=True)
    n_values, n_table, [(result, observed)] = _run_model(
        [params], args.pool, args.generations, args.seed
    )
    outputs = ["r_samples.txt", "n_samples.txt", "diagnostics.csv", "offset.json"]
    save_samples(
        os.path.join(out, "r_samples.txt"),
        result.values,
        "r",
        args.seed,
        {
            "c": params.c,
            "d": params.d,
            "alpha": params.alpha,
            "pool_size": args.pool,
            "generations": args.generations,
            "ks_final": result.ks_final,
            "converged": result.converged,
        },
    )
    save_samples(
        os.path.join(out, "n_samples.txt"),
        n_values,
        "in-degree",
        final_generation_seed(args.seed, args.generations),
        {
            "model": "InDegreeModel",
            "alpha": params.alpha,
            "x_scale": pareto_scale_for_mean(params.alpha, params.d),
        },
    )
    save_diagnostics(result.diagnostics, os.path.join(out, "diagnostics.csv"))
    _save_tail_artifacts(result.values, ccdf(result.values), "r", out, args.xmin_fraction, outputs)
    _save_tail_artifacts(n_values, n_table, "n", out, args.xmin_fraction, outputs)
    with open(os.path.join(out, "offset.json"), "w") as fh:
        json.dump(
            {
                "c": params.c,
                "d": params.d,
                "alpha": params.alpha,
                "observed_offset": observed,
                "predicted_log10_y": log10_y,
                "difference": None if observed is None else observed - log10_y,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(
        out,
        "model",
        {
            "c": args.c,
            "d": args.d,
            "alpha": args.alpha,
            "pool": args.pool,
            "generations": args.generations,
            "seed": args.seed,
            "xmin_fraction": args.xmin_fraction,
        },
        outputs + ["manifest.json"],
    )
    if not result.converged:
        print(
            f"warning: final KS distance {result.ks_final!r} above threshold; "
            "inspect diagnostics.csv",
            file=sys.stderr,
        )
    return 0


def cmd_generate_gn(args) -> int:
    params = GrowthParams(beta=args.beta, d=args.d, n_final=args.n, seed=args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    g = generate(params)
    write_edge_list(g, os.path.join(out, "edges.txt"))
    _write_manifest(
        out,
        "generate-gn",
        {"beta": args.beta, "d": args.d, "n": args.n, "seed": args.seed},
        ["edges.txt", "manifest.json"],
    )
    return 0


def _parse_c_grid(text: str) -> list:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParameterError("c grid must contain at least one value")
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ParameterError(f"c grid must be comma-separated reals, got {text!r}") from None


def cmd_compare(args) -> int:
    c_grid = _parse_c_grid(args.c)
    # every grid value is checked before the solve starts
    grid_params = [ModelParams(c=c, d=args.d, alpha=args.alpha) for c in c_grid]
    check_solve_args(args.pool, args.generations, args.seed)
    predictions = _predicted_log10_y(grid_params)
    out = args.out
    os.makedirs(out, exist_ok=True)
    _, _, runs = _run_model(grid_params, args.pool, args.generations, args.seed)
    with open(os.path.join(out, "compare.csv"), "w") as fh:
        fh.write("c,predicted_log10_y,observed_offset,difference\n")
        for params, predicted, (_, observed) in zip(grid_params, predictions, runs):
            if observed is None:
                observed = float("nan")
            fh.write(f"{params.c!r},{predicted!r},{observed!r},{observed - predicted!r}\n")
    _write_manifest(
        out,
        "compare",
        {
            "c": c_grid,
            "d": args.d,
            "alpha": args.alpha,
            "pool": args.pool,
            "generations": args.generations,
            "seed": args.seed,
        },
        ["compare.csv", "manifest.json"],
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prtail",
        description="PageRank tail behavior: simulation, graph computation, and tail fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pagerank", help="PageRank of an edge-list graph")
    p.add_argument("graph", help="edge-list file ('src dst' lines, '#' comments)")
    p.add_argument("--c", type=float, required=True, help="damping factor in (0, 1)")
    p.add_argument("--tol", type=float, default=1e-10, help="per-node L1 tolerance")
    p.add_argument("--dangling", choices=DANGLING_POLICIES, default="redistribute")
    p.add_argument("--keep-duplicates", action="store_true", help="keep duplicate edges")
    p.add_argument("--xmin-fraction", type=float, default=DEFAULT_TOP_FRACTION)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pagerank)

    p = sub.add_parser("model", help="simulate the rank equation")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--d", type=float, default=8.2)
    p.add_argument("--alpha", type=float, default=1.1)
    p.add_argument("--pool", type=int, default=10**6)
    p.add_argument("--generations", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--xmin-fraction", type=float, default=DEFAULT_TOP_FRACTION)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("generate-gn", help="grow an attachment network")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_gn)

    p = sub.add_parser("compare", help="predicted vs observed offsets over a c grid")
    p.add_argument("--c", required=True, help="comma-separated damping values")
    p.add_argument("--d", type=float, default=8.2)
    p.add_argument("--alpha", type=float, default=1.1)
    p.add_argument("--pool", type=int, default=10**6)
    p.add_argument("--generations", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DegenerateFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
