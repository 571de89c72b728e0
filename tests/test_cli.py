"""End-to-end command-line behavior: artifacts, manifests, exit codes."""

import argparse
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from prtail import cli
from prtail.cli import main
from prtail.fixedpoint import KS_THRESHOLD, ModelParams, final_generation_seed, solve_r
from prtail.graph import load_edge_list
from prtail.errors import ParameterError
from prtail.rvmodel import InDegreeModel, tail_spec_for_mean
from prtail.tailstats import ROWS_PER_DECADE, ccdf, log_ccdf_offset
from prtail.theory import factor, pareto_lst

STAR = "1 0\n2 0\n3 0\n0 1\n"


def header_lines(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def dir_bytes(out_dir):
    files = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def write_json_reference(path, payload):
    """A JSON artifact as one json.dump."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


COMMANDS = ["pagerank", "model", "generate-gn", "compare"]


def small_run(command, tmp_path):
    """argv, without --out, of a small run of command that succeeds;
    pagerank reads a random 300-node graph.txt written to tmp_path."""
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 300, (1500, 2))
    (tmp_path / "graph.txt").write_text("".join(f"{a} {b}\n" for a, b in edges))
    return {
        "pagerank": ["pagerank", str(tmp_path / "graph.txt"), "--c", "0.85"],
        "model": ["model", "--c", "0.9", "--pool", "1500", "--generations", "2", "--seed", "7"],
        "generate-gn": ["generate-gn", "--beta", "0.2", "--d", "3", "--n", "300", "--seed", "3"],
        "compare": ["compare", "--c", "0.5,0.9", "--pool", "1500", "--generations", "2", "--seed", "7"],
    }[command]


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
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("error: power iteration stopped at residual ")
    assert error.endswith(" without reaching tolerance")
    # artifacts are still written for inspection, and the record says the run failed
    assert (out / "pagerank.txt").exists()
    manifest = read_manifest(out)
    assert manifest["error"] == error[len("error: ") :]
    assert manifest["exit_code"] == 4
    assert manifest["outputs"] == sorted(os.listdir(out))
    assert "pagerank.txt" in manifest["outputs"]


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


def _check_thinned_ccdf(values, out, prefix):
    """The CCDF files of values hold a thinned table: exact p at every
    kept row, the first and last values kept, at most about
    ROWS_PER_DECADE rows per decade of x and of p."""
    lines = (out / f"{prefix}_ccdf.csv").read_text().splitlines()
    assert lines[0] == "x,p"
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    x, p = table[:, 0], table[:, 1]
    assert np.all(np.diff(x) > 0)
    n = values.size
    assert np.array_equal(p, (n - np.searchsorted(np.sort(values), x, side="left")) / n)
    assert (x[0], p[0]) == (values.min(), 1.0)
    assert (x[-1], p[-1]) == (values.max(), np.count_nonzero(values == values.max()) / n)
    loglog = np.loadtxt(out / f"{prefix}_ccdf_loglog.txt", comments="#", ndmin=2)
    positive = x > 0
    assert loglog.shape == (np.count_nonzero(positive), 2)
    assert np.abs(loglog - np.log10(table[positive])).max() <= 1e-12
    decades_x = math.log10(x[-1]) - math.log10(x[positive][0])
    decades_p = -math.log10(p[-1])
    bound = math.ceil(ROWS_PER_DECADE * decades_x) + math.ceil(ROWS_PER_DECADE * decades_p) + 2
    assert x.size <= bound + (not positive[0])
    return x.size


def test_ccdf_files_hold_the_thinned_table(tmp_path):
    out = tmp_path / "model"
    argv = ["model", "--c", "0.5", "--pool", "2000", "--generations", "3", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    r_values = np.loadtxt(out / "r_samples.txt", comments="#")
    assert _check_thinned_ccdf(r_values, out, "r") < np.unique(r_values).size
    _check_thinned_ccdf(np.loadtxt(out / "n_samples.txt", comments="#"), out, "n")
    gn, pr = tmp_path / "gn", tmp_path / "pr"
    assert main(["generate-gn", "--beta", "0.2", "--d", "4", "--n", "3000", "--seed", "3",
                 "--out", str(gn)]) == 0
    assert main(["pagerank", str(gn / "edges.txt"), "--c", "0.85", "--out", str(pr)]) == 0
    pr_values = np.loadtxt(pr / "pagerank.txt", comments="#")[:, 1]
    assert _check_thinned_ccdf(pr_values, pr, "pagerank") < np.unique(pr_values).size


def test_model_exits_2_when_a_draw_fails_in_the_solve(tmp_path, monkeypatch, capsys):
    # solve_r's helper thread draws the counts; its ParameterError
    # reaches the command's exit code, and the thread is gone
    def failing_sample(self, n, seed, out=None):
        raise ParameterError("draw failed on purpose")

    monkeypatch.setattr(InDegreeModel, "sample", failing_sample)
    threads = threading.active_count()
    rc = main(["model", "--c", "0.5", "--pool", "2000", "--generations", "3", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "on purpose" in capsys.readouterr().err
    assert threading.active_count() == threads


def test_run_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys):
    # the solve's allocation fails as numpy's does; nothing is allocated
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type float64"

    def failing_solve(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "solve_r", failing_solve)
    out = tmp_path / "out"
    argv = ["model", "--c", "0.5", "--pool", "1000000000000", "--generations", "1"]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    manifest = read_manifest(out)
    assert manifest["error"] == message
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == ["manifest.json"]


@pytest.mark.parametrize("error, code", [(OSError, 3), (ParameterError, 2)])
def test_failed_run_records_its_error(tmp_path, monkeypatch, capsys, error, code):
    # the R sample is written, then the N sample's write fails
    real = cli.save_samples

    def failing_n_sample(path, *args):
        if os.path.basename(path) == "n_samples.txt":
            raise error("write failed on purpose")
        real(path, *args)

    monkeypatch.setattr(cli, "save_samples", failing_n_sample)
    out = tmp_path / "out"
    argv = ["model", "--c", "0.5", "--pool", "1000", "--generations", "2", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr().err == "error: write failed on purpose\n"
    manifest = read_manifest(out)
    assert manifest["error"] == "write failed on purpose"
    assert manifest["exit_code"] == code
    assert manifest["outputs"] == sorted(os.listdir(out)) == ["manifest.json", "r_samples.txt"]
    assert manifest["command"] == "model"
    assert manifest["parameters"] == MANIFESTS["model"][0] | {"c": 0.5, "pool": 1000, "seed": 1}


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_unmapped_failure_is_recorded_and_raised(tmp_path, monkeypatch, error):
    # a bug or an interrupt has no exit code: the record says so, and
    # the exception reaches the caller unchanged
    real = cli.save_samples
    raised = error("stopped on purpose")

    def failing_n_sample(path, *args):
        if os.path.basename(path) == "n_samples.txt":
            raise raised
        real(path, *args)

    monkeypatch.setattr(cli, "save_samples", failing_n_sample)
    out = tmp_path / "out"
    argv = ["model", "--c", "0.5", "--pool", "1000", "--generations", "2", "--seed", "1"]
    with pytest.raises(error) as caught:
        main(argv + ["--out", str(out)])
    assert caught.value is raised
    manifest = read_manifest(out)
    assert manifest["error"] == f"{error.__name__}: stopped on purpose"
    assert manifest["exit_code"] is None
    assert manifest["outputs"] == sorted(os.listdir(out)) == ["manifest.json", "r_samples.txt"]


def test_failed_record_keeps_the_run_error(tmp_path, monkeypatch, capsys):
    # a full disk fails the record too: the run still reports its own error
    def failing(name):
        def fail(*args):
            raise OSError(f"{name} failed on purpose")

        return fail

    monkeypatch.setattr(cli, "save_samples", failing("sample"))
    monkeypatch.setattr(cli, "write_json", failing("record"))
    out = tmp_path / "out"
    argv = ["model", "--c", "0.5", "--pool", "1000", "--generations", "2", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: sample failed on purpose\n"
    assert os.listdir(out) == []


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
        f"# x_scale: {tail_spec_for_mean(1.1, 8.2).x_scale!r}",
    ]


@pytest.mark.parametrize("command", COMMANDS)
def test_run_is_byte_reproducible(tmp_path, command):
    args = small_run(command, tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert dir_bytes(out_a) == dir_bytes(out_b)


def parser_destinations(command):
    """The destinations of command's options and arguments."""
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in subparsers.choices[command]._actions} - {"help"}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_records_every_option_but_out(tmp_path, command):
    out = tmp_path / "out"
    assert main(small_run(command, tmp_path) + ["--out", str(out)]) == 0
    assert set(read_manifest(out)["parameters"]) == parser_destinations(command) - {"out"}


MODEL_OUTPUTS = [
    "diagnostics.csv", "manifest.json", "n_ccdf.csv", "n_ccdf_loglog.txt", "n_samples.txt",
    "n_tail_fit.json", "offset.json", "r_ccdf.csv", "r_ccdf_loglog.txt", "r_samples.txt", "r_tail_fit.json",
]
MANIFESTS = {
    "pagerank": (
        {"graph": "graph.txt", "c": 0.85, "tol": 1e-10, "dangling": "redistribute",
         "keep_duplicates": False, "xmin_fraction": 0.1},
        ["manifest.json", "pagerank.txt", "pagerank_ccdf.csv", "pagerank_ccdf_loglog.txt",
         "pagerank_tail_fit.json"],
    ),
    "model": (
        {"c": 0.9, "d": 8.2, "alpha": 1.1, "pool": 1500, "generations": 2, "seed": 7,
         "xmin_fraction": 0.1},
        MODEL_OUTPUTS,
    ),
    "generate-gn": ({"beta": 0.2, "d": 3, "n": 300, "seed": 3}, ["edges.txt", "manifest.json"]),
    "compare": (
        {"c": [0.5, 0.9], "d": 8.2, "alpha": 1.1, "pool": 1500, "generations": 2, "seed": 7},
        ["compare.csv", "manifest.json"],
    ),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_bytes_match_reference(tmp_path, command):
    out = tmp_path / "out"
    assert main(small_run(command, tmp_path) + ["--out", str(out)]) == 0
    parameters, outputs = MANIFESTS[command]
    versions = read_manifest(out)["versions"]
    write_json_reference(
        tmp_path / "ref.json",
        {"command": command, "parameters": parameters, "versions": versions, "outputs": outputs},
    )
    assert (out / "manifest.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("c", [0.5, 1e-6])
def test_offset_json_bytes_match_reference(tmp_path, c):
    out = tmp_path / "out"
    argv = ["model", "--c", repr(c), "--pool", "2000", "--generations", "3", "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    r_values = np.loadtxt(out / "r_samples.txt", comments="#")
    n_values = np.loadtxt(out / "n_samples.txt", comments="#")
    predicted = math.log10(factor(c, 8.2, 1.1))
    try:
        observed = log_ccdf_offset(ccdf(r_values), ccdf(n_values))
    except ParameterError:
        observed = None
    write_json_reference(
        tmp_path / "ref.json",
        {
            "c": c,
            "d": 8.2,
            "alpha": 1.1,
            "observed_offset": observed,
            "predicted_log10_y": predicted,
            "difference": None if observed is None else observed - predicted,
        },
    )
    assert (out / "offset.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


def test_compare_csv_bytes_match_reference(tmp_path):
    # c = 1e-5 leaves R a point mass with no tail band: its row holds nan
    out = tmp_path / "out"
    argv = ["compare", "--c", "0.5,1e-5,0.9", "--pool", "1000", "--generations", "2", "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    grid = [ModelParams(c=c, d=8.2, alpha=1.1) for c in (0.5, 1e-5, 0.9)]
    model = grid[0].in_degree_model()
    results = solve_r(grid, model, pool_size=1000, generations=2, seed=3)
    n_table = ccdf(model.sample(1000, final_generation_seed(3, 2)))
    with open(tmp_path / "ref.csv", "w") as fh:
        fh.write("c,predicted_log10_y,observed_offset,difference\n")
        for params, result in zip(grid, results):
            predicted = math.log10(factor(params.c, params.d, params.alpha))
            try:
                observed = log_ccdf_offset(ccdf(result.values), n_table)
            except ParameterError:
                observed = float("nan")
            fh.write(f"{params.c!r},{predicted!r},{observed!r},{observed - predicted!r}\n")
    assert (out / "compare.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (out / "compare.csv").read_text().splitlines()[2].endswith(",nan,nan")


def test_model_different_seed_changes_samples(tmp_path):
    base = ["model", "--c", "0.5", "--pool", "2000", "--generations", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    assert (out_a / "r_samples.txt").read_bytes() != (out_b / "r_samples.txt").read_bytes()


def test_model_warns_on_an_unconverged_run(tmp_path, capsys):
    # one generation at pool 1000 leaves c = 0.9 far from its fixed point
    params = ModelParams(c=0.9, d=8.2, alpha=1.1)
    [result] = solve_r([params], params.in_degree_model(), pool_size=1000, generations=1, seed=0)
    assert result.ks_final > KS_THRESHOLD
    rc = main(
        ["model", "--c", "0.9", "--pool", "1000", "--generations", "1", "--seed", "0",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    warning = f"warning: c=0.9: final KS distance {result.ks_final!r} above threshold"
    assert capsys.readouterr().err.splitlines() == [warning]


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


def test_compare_warns_on_a_c_that_did_not_converge(tmp_path, capsys):
    # two generations at pool 1000 leave c = 0.99 far from its fixed point
    params = ModelParams(c=0.99, d=8.2, alpha=1.1)
    [result] = solve_r([params], params.in_degree_model(), pool_size=1000, generations=2, seed=0)
    assert result.ks_final > KS_THRESHOLD
    rc = main(
        ["compare", "--c", "0.99", "--pool", "1000", "--generations", "2", "--seed", "0",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    warning = f"warning: c=0.99: final KS distance {result.ks_final!r} above threshold"
    assert capsys.readouterr().err.splitlines() == [warning]


def test_compare_notes_name_the_c_of_each_unavailable_offset(tmp_path, capsys):
    # at pool 1000 no table reaches into the quantile band, at any c
    rc = main(
        ["compare", "--c", "0.5,1e-5,0.9", "--pool", "1000", "--generations", "2", "--seed", "3",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    reason = "CCDF supports do not overlap inside the quantile band (0.99, 0.9999)"
    notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note:")]
    assert notes == [f"note: c={c}: offset unavailable ({reason})" for c in ("0.5", "1e-05", "0.9")]


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
    # needs no interpolant, so start-up loads none of scipy's heavy parts;
    # solve_r imports its executor, and with it logging, when it runs
    for module, heavy in (("prtail.cli", HEAVY_SCIPY + ("concurrent.futures", "logging")),
                          ("prtail.theory", HEAVY_SCIPY)):
        code = f"import {module}, sys; print([m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    # a solve loads the sum kernel's extension module from its file, not
    # the scipy.sparse package around it
    code = (
        "import sys\n"
        "from prtail.fixedpoint import ModelParams, solve_r\n"
        "params = ModelParams(c=0.5, d=8.2, alpha=1.1)\n"
        "solve_r([params], params.in_degree_model(), pool_size=1000, generations=1, seed=1)\n"
        "print([m for m in sys.modules if m.startswith('scipy.sparse')])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.sparse._sparsetools']"


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


REJECTED = [
    ["model", "--c", "0.5", "--d", "inf", "--pool", "1000", "--generations", "1"],
    ["compare", "--c", "0.5,nan", "--pool", "1000", "--generations", "1"],
    ["compare", "--c", "0.5,x", "--pool", "1000", "--generations", "1"],
    ["generate-gn", "--beta", "0.2", "--d", "8", "--n", "8"],
    ["pagerank", "missing.txt", "--c", "0.85"],
    ["model", "--c", "0.5", "--pool", "0", "--generations", "1"],
    ["compare", "--c", "0.5", "--pool", "1000", "--generations", "0"],
    ["model", "--c", "0.5", "--pool", "1000", "--generations", "2", "--xmin-fraction", "0"],
    ["pagerank", "star.txt", "--c", "0.85", "--xmin-fraction", "0"],
]


@pytest.mark.parametrize("argv", REJECTED)
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


@pytest.mark.parametrize("command", COMMANDS)
def test_rerun_into_a_used_directory_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = small_run(command, tmp_path) + ["--out", str(out)]
    assert main(argv) == 0
    before = dir_bytes(out)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory ") and str(out) in err
    assert dir_bytes(out) == before


def test_empty_out_directory_is_accepted(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(small_run("generate-gn", tmp_path) + ["--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == read_manifest(out)["outputs"]


@pytest.mark.parametrize("argv", REJECTED)
def test_rejected_rerun_keeps_the_earlier_record(tmp_path, argv):
    out = tmp_path / "out"
    (tmp_path / "star.txt").write_text(STAR)
    assert main(small_run("generate-gn", tmp_path) + ["--out", str(out)]) == 0
    before = dir_bytes(out)
    argv = [str(tmp_path / a) if a in ("missing.txt", "star.txt") else a for a in argv]
    assert main(argv + ["--out", str(out)]) in (2, 3)
    assert dir_bytes(out) == before


def test_benchmark_span_names_resolve():
    # perfbench/tracing.py names library functions by "layer.name" or
    # "layer.Class.method"; a name that no longer resolves would read
    # as a metric of 0 instead of failing
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = set(tracing.TIME_METRICS) | set(tracing.CALL_METRICS) | set(tracing.WORK_METRICS)
    assert len(names) == 26
    for name in sorted(names):
        layer, *attrs = name.split(".")
        obj = importlib.import_module(f"prtail.{layer}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), name
