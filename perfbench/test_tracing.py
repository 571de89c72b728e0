"""The tracer's accounting rules, and that tracing leaves outputs unchanged.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))


def test_self_time_rolls_up_to_nearest_metric():
    # generate (0..10) calls gn_links (1..4) and the unmapped from_edges
    # (5..6), whose self time counts toward generate
    dump = {
        "import_end": 0.0,
        "end": 10.5,
        "spans": [
            ["growingnet.generate", 0.0, 10.0, -1],
            ["accel.gn_links", 1.0, 4.0, 0],
            ["graph.from_edges", 5.0, 6.0, 0],
        ],
        "work": {"growingnet.links": 12},
    }
    metrics = tracing.process_metrics(dump, launch=-2.0, exit_time=11.0)
    assert metrics["accel.gn_links_s"] == pytest.approx(3.0)
    assert metrics["growingnet.generate_s"] == pytest.approx(7.0)
    assert metrics["growingnet.links"] == 12
    assert metrics["cli.import_s"] == pytest.approx(2.0)
    assert metrics["cli.exit_s"] == pytest.approx(0.5)
    assert metrics["cli.other_s"] == pytest.approx(0.5)


def test_call_counts():
    dump = {
        "import_end": 0.0,
        "end": 3.0,
        "spans": [["accel.edge_push", 0.0, 1.0, -1], ["accel.edge_push", 1.0, 3.0, -1]],
        "work": {},
    }
    metrics = tracing.process_metrics(dump, launch=0.0, exit_time=3.0)
    assert metrics["accel.edge_push_calls"] == 2
    assert metrics["accel.edge_push_s"] == pytest.approx(3.0)
    assert metrics["cli.other_s"] == pytest.approx(0.0)


def test_traced_run_writes_the_same_bytes(tmp_path):
    args = ["model", "--c", "0.5", "--pool", "2000", "--generations", "3", "--seed", "5"]
    env = dict(os.environ, PRTAIL_DISABLE_NUMBA="1")
    plain, traced, spans = tmp_path / "plain", tmp_path / "traced", tmp_path / "spans.json"
    subprocess.run([sys.executable, "-m", "prtail", *args, "--out", str(plain)], env=env, check=True)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "traced.py"), str(spans), "cli", *args, "--out", str(traced)],
        env=env,
        check=True,
    )
    assert sorted(os.listdir(plain)) == sorted(os.listdir(traced))
    for name in os.listdir(plain):
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    dump = json.loads(spans.read_text())
    names = {span[0] for span in dump["spans"]}
    assert {"fixedpoint.solve_r", "fixedpoint.iterate_generation", "accel.segment_sums",
            "rvmodel.InDegreeModel.sample", "samples.save_samples", "theory.factor"} <= names
    assert sum(name == "fixedpoint.ks_distance" for name in [s[0] for s in dump["spans"]]) == 3
    assert dump["work"]["rvmodel.draws"] == 4 * 2000


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"]) for m in listed] == [(n, tracing.unit(n)) for n in tracing.PER_LAYER]
