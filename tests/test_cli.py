"""End-to-end command-line behavior: artifacts, manifests, exit codes."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from prtail.cli import main
from prtail.fixedpoint import KS_THRESHOLD, final_generation_seed
from prtail.graph import load_edge_list
from prtail.errors import ParameterError
from prtail.rvmodel import InDegreeModel, pareto_scale_for_mean, tail_spec_for_mean
from prtail.theory import pareto_lst

STAR = "1 0\n2 0\n3 0\n0 1\n"


def header_lines(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def dir_bytes(out_dir):
    return {
        name: open(os.path.join(out_dir, name), "rb").read() for name in os.listdir(out_dir)
    }


def test_pagerank_command_smoke(tmp_path):
    graph = tmp_path / "star.txt"
    graph.write_text(STAR)
    out = tmp_path / "out"
    rc = main(["pagerank", str(graph), "--c", "0.85", "--out", str(out)])
    assert rc == 0
    manifest = read_manifest(out)
    assert manifest["command"] == "pagerank"
    assert manifest["parameters"]["c"] == 0.85
    assert sorted(os.listdir(out)) == manifest["outputs"]
    lines = (out / "pagerank.txt").read_text().splitlines()
    assert lines[0] == "# c: 0.85"
    values = {int(l.split()[0]): float(l.split()[1]) for l in lines[4:]}
    assert values[0] > values[1] > values[2] == values[3]


def test_pagerank_uniform_graph_skips_degenerate_fit(tmp_path):
    graph = tmp_path / "cycle.txt"
    graph.write_text("0 1\n1 0\n")
    out = tmp_path / "out"
    rc = main(["pagerank", str(graph), "--c", "0.85", "--out", str(out)])
    assert rc == 0
    assert not (out / "pagerank_tail_fit.json").exists()
    assert (out / "pagerank_ccdf.csv").exists()
    assert "pagerank_tail_fit.json" not in read_manifest(out)["outputs"]


def test_pagerank_missing_file_is_io_error(tmp_path):
    rc = main(["pagerank", str(tmp_path / "nope.txt"), "--c", "0.5", "--out", str(tmp_path / "o")])
    assert rc == 3


def test_pagerank_malformed_graph_is_parse_error(tmp_path):
    graph = tmp_path / "bad.txt"
    graph.write_text("0 1\n2\n")
    rc = main(["pagerank", str(graph), "--c", "0.5", "--out", str(tmp_path / "o")])
    assert rc == 3


def test_pagerank_huge_node_id_is_parse_error(tmp_path, capsys):
    graph = tmp_path / "huge.txt"
    graph.write_text("0 99999999999999999999\n")
    rc = main(["pagerank", str(graph), "--c", "0.85", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


def test_pagerank_bad_damping_is_parameter_error(tmp_path):
    graph = tmp_path / "star.txt"
    graph.write_text(STAR)
    rc = main(["pagerank", str(graph), "--c", "1.5", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_pagerank_bad_damping_is_rejected_before_parsing(tmp_path):
    rc = main(["pagerank", str(tmp_path / "nope.txt"), "--c", "1.5", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_pagerank_non_convergence_exit_code(tmp_path, capsys):
    graph = tmp_path / "star.txt"
    graph.write_text(STAR)
    out = tmp_path / "out"
    rc = main(["pagerank", str(graph), "--c", "0.99", "--tol", "1e-300", "--out", str(out)])
    assert rc == 4
    assert "without reaching tolerance" in capsys.readouterr().err
    # artifacts are still written for inspection
    assert (out / "pagerank.txt").exists()


def test_model_command_artifacts_and_offset(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["model", "--c", "0.5", "--pool", "2000", "--generations", "3", "--seed", "1",
         "--out", str(out)]
    )
    assert rc == 0
    offset = json.loads((out / "offset.json").read_text())
    assert offset["c"] == 0.5
    assert offset["difference"] == pytest.approx(
        offset["observed_offset"] - offset["predicted_log10_y"]
    )
    r_samples = np.loadtxt(out / "r_samples.txt", comments="#")
    assert r_samples.size == 2000
    assert r_samples.min() >= 0.5
    n_samples = np.loadtxt(out / "n_samples.txt", comments="#", dtype=np.int64)
    assert n_samples.size == 2000
    assert n_samples.min() >= 0
    diag = (out / "diagnostics.csv").read_text().splitlines()
    assert diag[0].startswith("generation,mean,ks,max")
    assert len(diag) == 4


def test_model_exits_2_when_a_draw_fails_in_the_solve(tmp_path, monkeypatch, capsys):
    # solve_r's helper thread draws the counts; its ParameterError
    # reaches the command's exit code, and the thread is gone
    def failing_sample(self, n, seed):
        raise ParameterError("draw failed on purpose")

    monkeypatch.setattr(InDegreeModel, "sample", failing_sample)
    threads = threading.active_count()
    rc = main(["model", "--c", "0.5", "--pool", "2000", "--generations", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "on purpose" in capsys.readouterr().err
    assert threading.active_count() == threads


def test_model_sample_file_headers(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["model", "--c", "0.5", "--pool", "2000", "--generations", "3", "--seed", "5",
         "--out", str(out)]
    )
    assert rc == 0
    last = (out / "diagnostics.csv").read_text().splitlines()[-1].split(",")
    assert last[0] == "3"
    ks_final = float(last[2])
    assert header_lines(out / "r_samples.txt") == [
        "# source: r",
        "# seed: 5",
        "# count: 2000",
        "# dtype: float",
        "# alpha: 1.1",
        "# c: 0.5",
        f"# converged: {'true' if ks_final <= KS_THRESHOLD else 'false'}",
        "# d: 8.2",
        "# generations: 3",
        f"# ks_final: {ks_final!r}",
        "# pool_size: 2000",
    ]
    assert header_lines(out / "n_samples.txt") == [
        "# source: in-degree",
        f"# seed: {final_generation_seed(5, 3)}",
        "# count: 2000",
        "# dtype: int",
        "# alpha: 1.1",
        "# model: InDegreeModel",
        f"# x_scale: {pareto_scale_for_mean(1.1, 8.2)!r}",
    ]


def test_model_is_byte_reproducible(tmp_path):
    args = ["model", "--c", "0.9", "--pool", "1500", "--generations", "2", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)


def test_model_different_seed_changes_samples(tmp_path):
    base = ["model", "--c", "0.5", "--pool", "2000", "--generations", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    assert (out_a / "r_samples.txt").read_bytes() != (out_b / "r_samples.txt").read_bytes()


def test_model_ks_warning_still_succeeds(tmp_path, capsys):
    rc = main(
        ["model", "--c", "0.9", "--pool", "1000", "--generations", "1", "--seed", "0",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    assert "KS distance" in capsys.readouterr().err


def test_model_tiny_damping_degenerate_run(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(
        ["model", "--c", "1e-6", "--pool", "1000", "--generations", "2", "--seed", "0",
         "--out", str(out)]
    )
    assert rc == 0
    values = np.loadtxt(out / "r_samples.txt", comments="#")
    assert np.all(np.abs(values - 1.0) < 1e-3)
    # R is a point mass near 1, so no tail band is shared with N(T)
    offset = json.loads((out / "offset.json").read_text())
    assert offset["observed_offset"] is None
    assert offset["difference"] is None
    assert np.isfinite(offset["predicted_log10_y"])
    assert "offset unavailable" in capsys.readouterr().err


def test_model_all_zero_top_counts_skips_n_fit(tmp_path, capsys):
    # alpha just above 1 puts the Pareto scale near 0, so the top 10% of
    # N is all zeros and its threshold is 0: the N fit is skipped, and
    # the run still finishes with its manifest
    out = tmp_path / "out"
    rc = main(
        ["model", "--c", "0.5", "--alpha", "1.0000001", "--pool", "1000", "--generations", "2",
         "--out", str(out)]
    )
    assert rc == 0
    outputs = read_manifest(out)["outputs"]
    assert sorted(os.listdir(out)) == outputs
    assert "n_tail_fit.json" not in outputs
    assert "skipping n tail fit" in capsys.readouterr().err


def test_model_invalid_alpha_is_parameter_error(tmp_path):
    rc = main(
        ["model", "--c", "0.5", "--alpha", "1.0", "--pool", "1000", "--generations", "1",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2


def test_model_non_finite_d_is_parameter_error(tmp_path, capsys):
    rc = main(
        ["model", "--c", "0.5", "--d", "inf", "--pool", "1000", "--generations", "1",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 2
    assert "d must be finite" in capsys.readouterr().err


def test_generate_gn_command(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["generate-gn", "--beta", "0.2", "--d", "3", "--n", "200", "--seed", "5",
         "--out", str(out)]
    )
    assert rc == 0
    g = load_edge_list(out / "edges.txt", keep_duplicates=True)
    assert g.n == 200
    assert np.all(g.out_degree == 3)
    manifest = read_manifest(out)
    assert manifest["parameters"]["beta"] == 0.2


def test_generate_gn_rejects_small_n(tmp_path):
    rc = main(
        ["generate-gn", "--beta", "0.2", "--d", "8", "--n", "8", "--out", str(tmp_path / "o")]
    )
    assert rc == 2


def test_compare_command_table(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["compare", "--c", "0.5,0.9", "--pool", "2000", "--generations", "3", "--seed", "3",
         "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "c,predicted_log10_y,observed_offset,difference"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 0.5
    assert np.isfinite(float(row[2]))
    assert float(row[3]) == pytest.approx(float(row[2]) - float(row[1]), abs=1e-12)


def test_compare_near_boundary_damping_completes(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["compare", "--c", "0.99", "--pool", "1000", "--generations", "2", "--seed", "0",
         "--out", str(out)]
    )
    assert rc == 0
    row = (out / "compare.csv").read_text().splitlines()[1].split(",")
    assert np.isfinite(float(row[1]))


def test_compare_empty_grid_is_parameter_error(tmp_path):
    rc = main(["compare", "--c", " , ", "--pool", "1000", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_manifest_versions_block(tmp_path):
    out = tmp_path / "out"
    main(
        ["generate-gn", "--beta", "1.0", "--d", "1", "--n", "3", "--seed", "0", "--out", str(out)]
    )
    manifest = read_manifest(out)
    import prtail

    assert manifest["versions"]["prtail"] == prtail.__version__
    assert set(manifest["versions"]) == {"prtail", "python", "numpy", "scipy"}


def child_env():
    """Environment in which a child interpreter imports this prtail."""
    import prtail

    src = os.path.dirname(os.path.dirname(os.path.abspath(prtail.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point_runs(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "prtail", "model", "--c", "0.5", "--pool", "1000",
         "--generations", "2", "--seed", "1", "--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()


def test_package_import_loads_no_numerics():
    # the package root holds only __version__; the numeric modules load
    # with the submodules that need them
    code = "import prtail, sys; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


HEAVY_SCIPY = ("scipy.integrate", "scipy.special", "scipy.interpolate", "scipy.sparse", "scipy.stats")


def test_cli_import_loads_no_interpolation():
    # the CLI computes y(c) with float arithmetic and the Pareto transform
    # needs no interpolant, so start-up loads none of scipy's heavy parts
    for module in ("prtail.cli", "prtail.theory"):
        code = f"import {module}, sys; print([m for m in {HEAVY_SCIPY!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_pareto_lst_loads_special_functions_on_first_call():
    code = (
        "import sys\n"
        "from prtail.rvmodel import tail_spec_for_mean\n"
        "from prtail.theory import pareto_lst\n"
        "f = pareto_lst(tail_spec_for_mean(1.5, 8.2))\n"
        "print('scipy.special' in sys.modules, repr(f(0.5)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    loaded, value = proc.stdout.split()
    assert loaded == "True"
    assert float(value) == pareto_lst(tail_spec_for_mean(1.5, 8.2))(0.5)


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "--c", "0.5", "--d", "inf", "--pool", "1000", "--generations", "1"],
        ["compare", "--c", "0.5,nan", "--pool", "1000", "--generations", "1"],
        ["compare", "--c", "0.5,x", "--pool", "1000", "--generations", "1"],
        ["generate-gn", "--beta", "0.2", "--d", "8", "--n", "8"],
        ["pagerank", "missing.txt", "--c", "0.85"],
        ["model", "--c", "0.5", "--pool", "0", "--generations", "1"],
        ["compare", "--c", "0.5", "--pool", "1000", "--generations", "0"],
        ["model", "--c", "0.5", "--pool", "1000", "--generations", "2", "--xmin-fraction", "0"],
        ["pagerank", "star.txt", "--c", "0.85", "--xmin-fraction", "0"],
    ],
)
def test_rejected_run_leaves_no_directory(tmp_path, argv):
    out = tmp_path / "out"
    (tmp_path / "star.txt").write_text(STAR)
    argv = [str(tmp_path / a) if a in ("missing.txt", "star.txt") else a for a in argv]
    assert main(argv + ["--out", str(out)]) in (2, 3)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # y(c) underflows (c^alpha rounds to 0) or overflows (d^alpha)
        ["model", "--c", "1e-300", "--pool", "1000", "--generations", "1"],
        ["model", "--c", "1e-7", "--alpha", "50", "--pool", "1000", "--generations", "1"],
        ["model", "--c", "0.5", "--d", "1e12", "--alpha", "40", "--pool", "1000", "--generations", "1"],
        ["compare", "--c", "0.5,1e-300", "--pool", "1000", "--generations", "1"],
        # T draws beyond numpy's Poisson limit
        ["model", "--c", "0.5", "--d", "1e300", "--pool", "1000", "--generations", "1"],
        ["model", "--c", "0.5", "--alpha", "1e308", "--pool", "1000", "--generations", "1"],
        ["compare", "--c", "0.5", "--d", "1e300", "--pool", "1000", "--generations", "1"],
    ],
)
def test_unrepresentable_run_exits_2_before_its_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
