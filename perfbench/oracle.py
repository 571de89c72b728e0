"""Library-only oracle workload: Pareto transform tables and
transform-domain solves of the rank equation.

For each alpha it builds the quadrature-based transform table with
pareto_lst, reads it at the given points, and solves the transform
fixed point with solve_lst for every damping value, extracting the
mean and, for alpha > 2, the second moment. No sampling, no files
besides the one JSON result. Run from the repository root:

    PYTHONPATH=src python3 perfbench/oracle.py --alphas 1.5,2.5 --c 0.1,0.9 \
        --d 8.2 --w 0.001,0.5 --out oracle.json
"""

from __future__ import annotations

import argparse
import json

from prtail import fixedpoint, rvmodel, theory


def _reals(text: str) -> list:
    return [float(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", type=_reals, required=True, help="comma-separated tail indices")
    parser.add_argument("--c", type=_reals, required=True, help="comma-separated damping values")
    parser.add_argument("--d", type=float, required=True, help="mean in-degree")
    parser.add_argument("--w", type=_reals, required=True, help="comma-separated transform arguments")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    results = {"tables": [], "solves": []}
    for alpha in args.alphas:
        spec = rvmodel.tail_spec_for_mean(alpha, args.d)
        lst = theory.pareto_lst(spec)
        values = [float(v) for v in lst(args.w)]
        results["tables"].append({"alpha": alpha, "x_scale": spec.x_scale, "w": args.w, "f": values})
        for c in args.c:
            params = fixedpoint.ModelParams(c=c, d=args.d, alpha=alpha)
            grid = theory.solve_lst(params, lst)
            row = {"alpha": alpha, "c": c, "sweeps": grid.sweeps, "mean": theory.mean_from_lst(grid)}
            if alpha > 2:
                t_second_moment = alpha * spec.x_scale**2 / (alpha - 2.0)
                row["second_moment"] = theory.second_moment_from_lst(grid)
                row["second_moment_prediction"] = theory.second_moment_prediction(params, t_second_moment)
            results["solves"].append(row)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
