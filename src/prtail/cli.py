"""Command-line pipeline around the library.

Subcommands:
  pagerank      PageRank of an edge-list graph plus tail artifacts
  model         simulate the rank equation and compare tails with N(T)
  generate-gn   grow a mixed preferential/uniform attachment network
  compare       predicted vs observed tail offset over a damping grid

Every run that gets past its checks writes a manifest.json recording
command, every parsed option but --out (pagerank records the graph's
file name, compare the parsed c grid), library versions and, as its
outputs, the files present in --out, which must name a new or an empty
directory; identical parameters and seed reproduce every output file
byte for byte. A run that fails after it has made its output directory
records its error and exit code there too; a pagerank run that does
not converge is one of them. An exception that maps to no exit code
(a bug, a KeyboardInterrupt) is recorded as "Type: message" with a
null exit code, and propagates. Exit codes: 0 success,
2 parameter error or a run too large for memory, 3 I/O or parse
error, 4 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
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
    DEFAULT_TOL,
    check_pagerank_args,
    load_edge_list,
    pagerank,
    save_pagerank,
    write_edge_list,
)
from .growingnet import GrowthParams, generate
from .samples import save_samples, write_json, write_table
from .tailstats import (
    DEFAULT_TOP_FRACTION,
    ccdf,
    check_top_fraction,
    fit_tail_fraction,
    log_ccdf_offset,
    save_ccdf,
    save_ccdf_loglog,
    save_tail_fit,
    thin_ccdf,
)
from .theory import factor

# the exit code of each error a run can end with
_EXIT_CODES = {
    ParameterError: 2,
    DegenerateFitError: 2,
    MemoryError: 2,
    ParseError: 3,
    OSError: 3,
    NumericError: 4,
}


def _exit_code(exc: BaseException) -> int | None:
    return next((code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)), None)


def _write_manifest(args, recorded: dict, **status) -> None:
    """manifest.json of the run: every parsed option but --out, with
    recorded's values in place of the parsed ones, and the files present
    in --out with the manifest itself as outputs."""
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    write_json(
        os.path.join(args.out, "manifest.json"),
        {
            "command": args.command,
            "parameters": {**parameters, **recorded},
            "versions": {
                "prtail": __version__,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "outputs": sorted(set(os.listdir(args.out)) | {"manifest.json"}),
            **status,
        },
    )


@contextlib.contextmanager
def _run_record(args, **recorded):
    """Make the run's output directory and yield output(name), the path
    of the file name there; when the block ends, the manifest lists the
    files present in the directory as the run's outputs.

    A run that fails inside the block writes the manifest with its
    error and exit code; an exception outside _EXIT_CODES is recorded
    as "Type: message" with a null exit code. The exception then
    propagates unchanged. An OSError on that write is dropped, so the
    run's own error is what it reports.
    """
    os.makedirs(args.out, exist_ok=True)
    try:
        yield lambda name: os.path.join(args.out, name)
    except BaseException as exc:
        code = _exit_code(exc)
        # main prints a mapped error's message; any other names its type
        error = str(exc) if code is not None else f"{type(exc).__name__}: {exc}"
        with contextlib.suppress(OSError):
            _write_manifest(args, recorded, error=error, exit_code=code)
        raise
    _write_manifest(args, recorded)


def _save_tail_artifacts(values, table, prefix: str, output, fraction: float) -> None:
    # both CCDF files hold the thinned table: a few hundred rows per
    # decade draw the plot, and the samples file already holds every value
    thinned = thin_ccdf(table)
    save_ccdf(thinned, output(f"{prefix}_ccdf.csv"))
    save_ccdf_loglog(thinned, output(f"{prefix}_ccdf_loglog.txt"))
    try:
        fit = fit_tail_fraction(values, fraction)
    except DegenerateFitError as exc:
        print(f"note: skipping {prefix} tail fit ({exc})", file=sys.stderr)
        return
    save_tail_fit(fit, output(f"{prefix}_tail_fit.json"))


def _observed_offset(c: float, r_table, n_table):
    """Vertical log-log offset between the CCDF tables of R at damping
    c and of N, or None, with a note naming c, when the quantile band
    falls outside their common support (degenerate runs, e.g. c close
    to 0 where R collapses to a point mass)."""
    try:
        return log_ccdf_offset(r_table, n_table)
    except ParameterError as exc:
        print(f"note: c={c!r}: offset unavailable ({exc})", file=sys.stderr)
        return None


def _checked_grid(args, c_values: list) -> tuple:
    """(ModelParams of each c under args' d and alpha, log10 y(c) of each).
    Raises ParameterError, before any output, where a solve of the grid
    would, and where y(c) is not a positive finite double."""
    grid = [ModelParams(c=c, d=args.d, alpha=args.alpha) for c in c_values]
    check_solve_args(args.pool, args.generations, args.seed)
    return grid, [math.log10(factor(p.c, p.d, p.alpha)) for p in grid]


def _run_model(grid: list, args, *, history: bool):
    """Solve for R at every c of the grid from one set of draws, and
    draw the grid's reference N(T) sample once; returns (N sample, its
    CCDF table, one solve result per c). history is solve_r's: whether
    the results keep every generation's diagnostics row or the last."""
    model = grid[0].in_degree_model()
    results = solve_r(
        grid, model, pool_size=args.pool, generations=args.generations, seed=args.seed, history=history
    )
    # reference N(T) draws reuse the final generation's degree stream so
    # the offset comparison cancels shared extreme-draw noise
    n_values = model.sample(args.pool, final_generation_seed(args.seed, args.generations))
    return n_values, ccdf(n_values), results


def _warn_unconverged(grid: list, results) -> None:
    for params, result in zip(grid, results):
        if not result.converged:
            print(
                f"warning: c={params.c!r}: final KS distance {result.ks_final!r} above threshold",
                file=sys.stderr,
            )


def cmd_pagerank(args) -> int:
    check_pagerank_args(args.c, tol=args.tol, dangling=args.dangling)
    check_top_fraction(args.xmin_fraction)
    g = load_edge_list(args.graph, keep_duplicates=args.keep_duplicates)
    pv = pagerank(g, c=args.c, tol=args.tol, dangling=args.dangling)
    with _run_record(args, graph=os.path.basename(args.graph)) as output:
        save_pagerank(pv, g, output("pagerank.txt"))
        _save_tail_artifacts(pv.values, ccdf(pv.values), "pagerank", output, args.xmin_fraction)
        # the artifacts stay for inspection, and the manifest records the failure
        if not pv.converged:
            raise NumericError(
                f"power iteration stopped at residual {pv.residual!r} "
                f"after {pv.iterations} iterations without reaching tolerance"
            )
    return 0


def cmd_model(args) -> int:
    [params], [log10_y] = _checked_grid(args, [args.c])
    check_top_fraction(args.xmin_fraction)
    with _run_record(args) as output:
        n_values, n_table, [result] = _run_model([params], args, history=True)
        r_table = ccdf(result.values)
        observed = _observed_offset(params.c, r_table, n_table)
        save_samples(
            output("r_samples.txt"),
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
            output("n_samples.txt"),
            n_values,
            "in-degree",
            final_generation_seed(args.seed, args.generations),
            {
                "model": "InDegreeModel",
                "alpha": params.alpha,
                "x_scale": params.in_degree_model().tail.x_scale,
            },
        )
        save_diagnostics(result.diagnostics, output("diagnostics.csv"))
        _save_tail_artifacts(result.values, r_table, "r", output, args.xmin_fraction)
        _save_tail_artifacts(n_values, n_table, "n", output, args.xmin_fraction)
        write_json(
            output("offset.json"),
            {
                "c": params.c,
                "d": params.d,
                "alpha": params.alpha,
                "observed_offset": observed,
                "predicted_log10_y": log10_y,
                "difference": None if observed is None else observed - log10_y,
            },
        )
    _warn_unconverged([params], [result])
    return 0


def cmd_generate_gn(args) -> int:
    params = GrowthParams(beta=args.beta, d=args.d, n_final=args.n, seed=args.seed)
    with _run_record(args) as output:
        write_edge_list(generate(params), output("edges.txt"))
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
    grid, predicted = _checked_grid(args, c_grid)
    with _run_record(args, c=c_grid) as output:
        # the N sample and each R table are dropped once they have served;
        # compare writes no diagnostics, so only the last row is taken
        n_table, results = _run_model(grid, args, history=False)[1:]
        offsets = [_observed_offset(p.c, ccdf(result.values), n_table) for p, result in zip(grid, results)]
        observed = numpy.array([math.nan if o is None else o for o in offsets])
        write_table(
            output("compare.csv"),
            "c,predicted_log10_y,observed_offset,difference\n",
            "%r,%r,%r,%r\n",
            numpy.array(c_grid),
            numpy.array(predicted),
            observed,
            observed - predicted,
        )
    _warn_unconverged(grid, results)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prtail",
        description="PageRank tail behavior: simulation, graph computation, and tail fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("--d", type=float, default=8.2)
    solve.add_argument("--alpha", type=float, default=1.1)
    solve.add_argument("--pool", type=int, default=10**6)
    solve.add_argument("--generations", type=int, default=30)
    solve.add_argument("--seed", type=int, default=0)
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--xmin-fraction", type=float, default=DEFAULT_TOP_FRACTION)

    p = sub.add_parser("pagerank", parents=[tail, out], help="PageRank of an edge-list graph")
    p.add_argument("graph", help="edge-list file ('src dst' lines, '#' comments)")
    p.add_argument("--c", type=float, required=True, help="damping factor in (0, 1)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="per-node L1 tolerance")
    p.add_argument("--dangling", choices=DANGLING_POLICIES, default="redistribute")
    p.add_argument("--keep-duplicates", action="store_true", help="keep duplicate edges")
    p.set_defaults(func=cmd_pagerank)

    p = sub.add_parser("model", parents=[solve, tail, out], help="simulate the rank equation")
    p.add_argument("--c", type=float, required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("generate-gn", parents=[out], help="grow an attachment network")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_gn)

    p = sub.add_parser("compare", parents=[solve, out], help="predicted vs observed offsets over a c grid")
    p.add_argument("--c", required=True, help="comma-separated damping values")
    p.set_defaults(func=cmd_compare)

    return parser


def _check_out(out: str) -> None:
    """Raise ParameterError when out is a directory that holds files:
    a run there would list them among its own outputs."""
    if os.path.isdir(out) and os.listdir(out):
        raise ParameterError(f"output directory {out!r} already holds files; choose a new or empty one")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
