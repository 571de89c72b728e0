"""The four benchmark workloads: the program runs of one round.

Every workload runs on the numpy kernel path, one process at a time.
The graph workload passes the benchmark's seed to the program as its
--seed flag; the oracle, which draws nothing, reads its transform
tables at points drawn from the seed. The model and compare runs keep
the program seed at SAMPLING_SEED whatever the benchmark's seed: with
tail index 1.1 their work and memory follow the largest in-degree
draws of the run, and across seeds 1-10 the peak RSS of the model run
ranges from 360 to 780 MiB, so runs with different seeds would not
measure the same work (README.md).

This module uses the standard library only: the process that times
the workloads stays small, because a child's max-RSS counts the pages
of the parent it was spawned from.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# the seed of the acceptance module, whose model run is the headline run
SAMPLING_SEED = 7
MODEL = {"c": 0.5, "d": 8.2, "alpha": 1.1, "pool": 10**6, "generations": 30}
COMPARE = {"c_grid": [0.1, 0.5, 0.9], "d": 8.2, "alpha": 1.1, "pool": 300_000, "generations": 30}
GROWTH = {"beta": 0.2, "d": 8, "n": 100_000}
PAGERANK_C = 0.85
ORACLE = {"alphas": (1.5, 2.5, 3.0), "c_grid": (0.1, 0.5, 0.9), "d": 8.2}


@dataclass(frozen=True)
class Step:
    """One program run: `prtail ARGS` (entry "cli") or the oracle program."""

    entry: str
    args: tuple
    out: str


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple  # interpreter arguments of the set-up process
    steps: Callable[[int, str], list]  # (seed, round_dir) -> the round's Steps
    # short rounds vary by up to 70% with other tenants' load; more of
    # them make it likelier that one falls in an undisturbed stretch
    min_rounds: int = 1


CLI_SETUP = ("-m", "prtail", "--help")


def _model_steps(seed, root):
    out = os.path.join(root, "model")
    m = MODEL
    args = ("model", "--c", m["c"], "--d", m["d"], "--alpha", m["alpha"], "--pool", m["pool"],
            "--generations", m["generations"], "--seed", SAMPLING_SEED, "--out", out)
    return [Step("cli", tuple(map(str, args)), out)]


def _compare_steps(seed, root):
    out = os.path.join(root, "compare")
    m = COMPARE
    args = ("compare", "--c", ",".join(map(repr, m["c_grid"])), "--d", m["d"], "--alpha", m["alpha"],
            "--pool", m["pool"], "--generations", m["generations"], "--seed", SAMPLING_SEED, "--out", out)
    return [Step("cli", tuple(map(str, args)), out)]


def _graph_steps(seed, root):
    grown, ranked = os.path.join(root, "gn"), os.path.join(root, "pagerank")
    g = GROWTH
    grow = ("generate-gn", "--beta", g["beta"], "--d", g["d"], "--n", g["n"], "--seed", seed, "--out", grown)
    rank = ("pagerank", os.path.join(grown, "edges.txt"), "--c", PAGERANK_C, "--out", ranked)
    return [Step("cli", tuple(map(str, grow)), grown), Step("cli", tuple(map(str, rank)), ranked)]


def oracle_points(seed: int) -> list:
    """Transform arguments for the table check: 8 points of the default
    pareto_lst grid (4096 log-spaced nodes on [1e-9, 16]) and 8
    log-uniform points in [1e-10, 16], below the table's floor included."""
    rng = random.Random(seed)
    lo, hi = math.log(1e-9), math.log(16.0)
    nodes = [math.exp(lo + (hi - lo) * i / 4095) for i in sorted(rng.sample(range(4096), 8))]
    between = sorted(math.exp(rng.uniform(math.log(1e-10), hi)) for _ in range(8))
    return nodes + between


def _oracle_steps(seed, root):
    out = os.path.join(root, "oracle")
    o = ORACLE
    args = ("--alphas", ",".join(map(repr, o["alphas"])), "--c", ",".join(map(repr, o["c_grid"])),
            "--d", repr(o["d"]), "--w", ",".join(map(repr, oracle_points(seed))),
            "--out", os.path.join(out, "oracle.json"))
    return [Step("oracle", args, out)]


WORKLOADS = {
    "model": Workload("model", CLI_SETUP, _model_steps),
    "compare": Workload("compare", CLI_SETUP, _compare_steps),
    "graph": Workload("graph", CLI_SETUP, _graph_steps, min_rounds=2),
    "oracle": Workload("oracle", ("-c", "import prtail"), _oracle_steps, min_rounds=6),
}
