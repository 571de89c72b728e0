"""The benchmark's checkers accept real outputs and reject corrupted ones.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

Each test runs the program at a small size, shows that the checker
passes on the untouched output, then corrupts one value and shows that
the checker rejects it with the matching message.
"""

from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

import checks
import oracle
from prtail.cli import main as prtail_main

SEED = 3
MODEL = {"c": 0.5, "d": 8.2, "alpha": 1.1, "pool": 2000, "generations": 5}
COMPARE = {"c_grid": [0.1, 0.5, 0.9], "d": 8.2, "alpha": 1.1, "pool": 10_000, "generations": 5}
GRAPH_N, GRAPH_D, PAGERANK_C = 400, 4, 0.85
ORACLE = {"alphas": (1.5, 2.5), "c_grid": (0.5,), "d": 8.2}
POINTS = [1e-10, 1e-4, 0.3, 7.0]


def cli(*args) -> None:
    assert prtail_main([str(a) for a in args]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    m = MODEL
    cli("model", "--c", m["c"], "--d", m["d"], "--alpha", m["alpha"], "--pool", m["pool"],
        "--generations", m["generations"], "--seed", SEED, "--out", root / "model")
    m = COMPARE
    cli("compare", "--c", ",".join(map(str, m["c_grid"])), "--d", m["d"], "--alpha", m["alpha"],
        "--pool", m["pool"], "--generations", m["generations"], "--seed", SEED, "--out", root / "compare")
    cli("generate-gn", "--beta", 0.2, "--d", GRAPH_D, "--n", GRAPH_N, "--seed", SEED, "--out", root / "gn")
    cli("pagerank", root / "gn" / "edges.txt", "--c", PAGERANK_C, "--out", root / "pagerank")
    o = ORACLE
    assert oracle.main(["--alphas", ",".join(map(str, o["alphas"])), "--c", ",".join(map(str, o["c_grid"])),
                        "--d", str(o["d"]), "--w", ",".join(map(repr, POINTS)),
                        "--out", str(root / "oracle.json")]) == 0
    return root


@pytest.fixture
def out(outputs, tmp_path):
    """A private copy of the outputs, free to corrupt."""
    copy = tmp_path / "outputs"
    shutil.copytree(outputs, copy)
    return copy


def check_model(out):
    checks.check_model(str(out / "model"), seed=SEED, **MODEL)


def check_compare(out):
    checks.check_compare(str(out / "compare"), seed=SEED, **COMPARE)


def check_graph(out):
    src, dst = checks.check_edges(str(out / "gn"), n=GRAPH_N, d=GRAPH_D, seed=SEED)
    checks.check_pagerank(str(out / "pagerank"), src, dst, n=GRAPH_N, c=PAGERANK_C)


def check_oracle(out):
    checks.check_oracle(json.loads((out / "oracle.json").read_text()), points=POINTS, **ORACLE)


def edit_lines(path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))


def edit_json(path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def body_start(lines) -> int:
    return next(i for i, line in enumerate(lines) if not line.startswith("#"))


@pytest.mark.parametrize("check", [check_model, check_compare, check_graph, check_oracle])
def test_untouched_outputs_pass(out, check):
    check(out)


def test_model_rejects_r_below_its_bound(out):
    model = out / "model"
    n = checks.read_samples(str(model / "n_samples.txt"), np.int64)
    c, d = MODEL["c"], MODEL["d"]

    def push_below(lines):
        first = body_start(lines)
        i = int(np.argmax(n))
        bound = float((1.0 - c) * (1.0 + (c / d) * n[i]))
        lines[first + i] = f"{bound * (1 - 1e-9)!r}\n"

    edit_lines(model / "r_samples.txt", push_below)
    with pytest.raises(checks.CheckError, match=r"below \(1-c\)"):
        check_model(out)


def test_model_rejects_wrong_prediction(out):
    edit_json(out / "model" / "offset.json", lambda p: p.update(predicted_log10_y=p["predicted_log10_y"] + 1e-9))
    with pytest.raises(checks.CheckError, match="predicted_log10_y"):
        check_model(out)


def test_model_rejects_wrong_difference(out):
    edit_json(out / "model" / "offset.json", lambda p: p.update(difference=p["difference"] * (1 + 1e-15) + 1e-15))
    with pytest.raises(checks.CheckError, match="difference"):
        check_model(out)


def test_model_rejects_wrong_hill_index(out):
    edit_json(out / "model" / "r_tail_fit.json", lambda p: p.update(alpha_ccdf=p["alpha_ccdf"] * (1 + 1e-6)))
    with pytest.raises(checks.CheckError, match="Hill"):
        check_model(out)


def test_model_rejects_wrong_ccdf_row(out):
    def nudge(lines):
        x, p = lines[5].strip().split(",")
        lines[5] = f"{x},{float(p) * (1 - 1e-12)!r}\n"

    edit_lines(out / "model" / "r_ccdf.csv", nudge)
    with pytest.raises(checks.CheckError, match="fraction of samples"):
        check_model(out)


def test_model_rejects_unlisted_output(out):
    (out / "model" / "stray.txt").write_text("x\n")
    with pytest.raises(checks.CheckError, match="manifest outputs"):
        check_model(out)


def test_compare_rejects_wrong_prediction(out):
    def shift(lines):
        c, predicted, observed, _ = lines[2].strip().split(",")
        predicted = float(predicted) + 1e-6
        lines[2] = f"{c},{predicted!r},{observed},{float(observed) - predicted!r}\n"

    edit_lines(out / "compare" / "compare.csv", shift)
    with pytest.raises(checks.CheckError, match="predicted_log10_y"):
        check_compare(out)


def test_compare_rejects_missing_row(out):
    edit_lines(out / "compare" / "compare.csv", lambda lines: lines.pop())
    with pytest.raises(checks.CheckError, match="one row per c"):
        check_compare(out)


def test_graph_rejects_repeated_edge(out):
    def repeat(lines):
        first = body_start(lines)
        # the second link of a node becomes a copy of its first: the
        # out-degree stays d, one edge repeats
        lines[first + 1] = lines[first]

    edit_lines(out / "gn" / "edges.txt", repeat)
    with pytest.raises(checks.CheckError, match="repeated edge"):
        check_graph(out)


def test_graph_rejects_self_loop(out):
    def loop(lines):
        first = body_start(lines)
        src = lines[first].split()[0]
        lines[first] = f"{src} {src}\n"

    edit_lines(out / "gn" / "edges.txt", loop)
    with pytest.raises(checks.CheckError, match="self-loop"):
        check_graph(out)


def test_graph_rejects_wrong_out_degree(out):
    edit_lines(out / "gn" / "edges.txt", lambda lines: lines.pop())
    with pytest.raises(checks.CheckError):
        check_graph(out)


def test_pagerank_rejects_perturbed_value(out):
    def perturb(lines):
        first = body_start(lines)
        node, value = lines[first + 7].split()
        lines[first + 7] = f"{node} {float(value) + 1e-3!r}\n"

    edit_lines(out / "pagerank" / "pagerank.txt", perturb)
    with pytest.raises(checks.CheckError, match="sum to"):
        check_graph(out)


def test_pagerank_rejects_mass_preserving_perturbation(out):
    def swap_mass(lines):
        first = body_start(lines)
        for offset, delta in ((7, 1e-4), (11, -1e-4)):
            node, value = lines[first + offset].split()
            lines[first + offset] = f"{node} {float(value) + delta!r}\n"

    edit_lines(out / "pagerank" / "pagerank.txt", swap_mass)
    with pytest.raises(checks.CheckError, match="residual"):
        check_graph(out)


def test_oracle_rejects_wrong_transform_value(out):
    edit_json(out / "oracle.json", lambda p: p["tables"][0]["f"].__setitem__(2, p["tables"][0]["f"][2] + 2e-8))
    with pytest.raises(checks.CheckError, match="mpmath"):
        check_oracle(out)


def test_oracle_rejects_wrong_mean(out):
    def shift(payload):
        row = next(r for r in payload["solves"] if r["alpha"] > 2)
        row["mean"] += 2e-4

    edit_json(out / "oracle.json", shift)
    with pytest.raises(checks.CheckError, match="mean"):
        check_oracle(out)


def test_oracle_rejects_wrong_second_moment(out):
    def shift(payload):
        row = next(r for r in payload["solves"] if r["alpha"] > 2)
        row["second_moment"] *= 1.02

    edit_json(out / "oracle.json", shift)
    with pytest.raises(checks.CheckError, match="second moment"):
        check_oracle(out)


def test_closed_form_matches_hand_value():
    # c^a / (d^a - c^a d) at (0.5, 8.2, 1.1), log10 = -1.13012237337758706...
    assert math.isclose(checks.log10_y(0.5, 8.2, 1.1), -1.1301223733775871, abs_tol=1e-15)
