"""Span tracer for the traced benchmark round, and the layer metrics
computed from its spans.

The tracer wraps the public functions and methods of prtail's library
modules from outside the package: nothing under src/ changes. Spans
are kept in memory and written out once, when the traced process has
finished its work. A span's self time is its duration minus the time
its child spans cover. Each span's self time counts toward the metric
of the nearest span, itself or an ancestor, that has one; so a helper
such as graph.from_edges counts toward parsing under load_edge_list
and toward growth under growingnet.generate.

All times come from time.monotonic(), which on Linux reads the
system-wide CLOCK_MONOTONIC, so the parent's launch time and the
child's span times share one clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

# modules whose public functions are wrapped; rng is left out, so its
# stream set-up counts toward the rvmodel, fixedpoint and growingnet
# calls that build the streams
LAYERS = ("rvmodel", "fixedpoint", "accel", "samples", "tailstats", "graph", "growingnet", "theory")

# span name -> per-layer time metric (seconds of self time)
TIME_METRICS = {
    "rvmodel.InDegreeModel.sample": "rvmodel.sample_s",
    "rvmodel.TailSpec.sample": "rvmodel.t_sample_s",
    "fixedpoint.iterate_generation": "fixedpoint.iterate_s",
    "fixedpoint.ks_distance": "fixedpoint.ks_s",
    "fixedpoint.solve_r": "fixedpoint.solve_s",
    "accel.segment_sums": "accel.segment_sums_s",
    "accel.edge_push": "accel.edge_push_s",
    "accel.gn_links": "accel.gn_links_s",
    "samples.save_samples": "samples.save_s",
    "tailstats.ccdf": "tailstats.ccdf_s",
    "tailstats.fit_tail_fraction": "tailstats.fit_s",
    "tailstats.fit_tail_mle": "tailstats.fit_s",
    "tailstats.x_min_for_top_fraction": "tailstats.fit_s",
    "tailstats.log_ccdf_offset": "tailstats.offset_s",
    "tailstats.save_ccdf": "tailstats.save_s",
    "tailstats.save_ccdf_loglog": "tailstats.save_s",
    "tailstats.save_tail_fit": "tailstats.save_s",
    "graph.load_edge_list": "graph.parse_s",
    "graph.parse_edge_list": "graph.parse_s",
    "graph.pagerank": "graph.pagerank_s",
    "graph.save_pagerank": "graph.save_s",
    "graph.write_edge_list": "graph.write_s",
    "growingnet.generate": "growingnet.generate_s",
    "theory.pareto_lst": "theory.pareto_lst_s",
    "theory.solve_lst": "theory.solve_lst_s",
    "theory.factor": "theory.factor_s",
}

# span name -> per-layer metric counting its calls
CALL_METRICS = {
    "fixedpoint.ks_distance": "fixedpoint.ks_calls",
    "fixedpoint.iterate_generation": "fixedpoint.generations",
    "accel.edge_push": "accel.edge_push_calls",
}


def _array_bytes(args, result) -> int:
    """Bytes of the kernel's array arguments and its result."""
    return sum(getattr(a, "nbytes", 0) for a in (*args, result))


# span name -> (call arguments, result) -> {metric: amount of work}
WORK_METRICS = {
    "rvmodel.InDegreeModel.sample": lambda args, res: {"rvmodel.draws": len(res)},
    "accel.segment_sums": lambda args, res: {
        "fixedpoint.picks": len(args[1]),
        "accel.segment_sums_bytes": _array_bytes(args, res),
    },
    "accel.edge_push": lambda args, res: {"accel.edge_push_bytes": _array_bytes(args, res)},
    "graph.load_edge_list": lambda args, res: {"graph.edges": res.m},
    "graph.pagerank": lambda args, res: {"graph.sweeps": res.iterations},
    "growingnet.generate": lambda args, res: {"growingnet.links": res.m},
    "theory.solve_lst": lambda args, res: {"theory.lst_sweeps": res.sweeps},
}

COUNT_METRICS = sorted(
    set(CALL_METRICS.values())
    | {"rvmodel.draws", "fixedpoint.picks", "accel.segment_sums_bytes", "accel.edge_push_bytes"}
    | {"graph.edges", "graph.sweeps", "growingnet.links", "theory.lst_sweeps", "theory.quad_calls"}
)


class Tracer:
    """Spans of one process: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.work: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        measure = WORK_METRICS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.monotonic(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.monotonic()
            if measure is not None:
                self.work.update(measure(args, result))
            return result

        return traced

    def count_calls(self, metric: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.work[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, namespaces=()) -> None:
        """Wrap every public function and method defined in the layer
        modules, then rebind names that other modules imported with
        `from module import name`."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"prtail.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                    setattr(module, attr, replaced[id(obj)])
                elif inspect.isclass(obj):
                    for name, method in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(method):
                            setattr(obj, name, self.wrap(f"{layer}.{attr}.{name}", method))
        theory = sys.modules["prtail.theory"]
        theory.quad = self.count_calls("theory.quad_calls", theory.quad)
        modules = [m for n, m in sys.modules.items() if n == "prtail" or n.startswith("prtail.")]
        for module in modules + list(namespaces):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def dump(self, path: str, import_end: float) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"import_end": import_end, "end": time.monotonic(), "spans": self.spans, "work": self.work},
                fh,
            )


def self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def process_metrics(dump: dict, launch: float, exit_time: float) -> Counter:
    """Per-layer metrics of one traced process.

    cli.import_s runs from launch (interpreter start included) to the
    end of the entry point's import, cli.exit_s from the return of the
    entry point to the exit of the process (interpreter shutdown);
    cli.other_s is the rest of the process's wall time, which no span
    covers.
    """
    spans = dump["spans"]
    metrics = Counter(dump["work"])
    own = self_times(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        metrics[CALL_METRICS.get(name)] += 1
        owner = index
        while owner >= 0 and spans[owner][0] not in TIME_METRICS:
            owner = spans[owner][3]
        if owner >= 0:
            metrics[TIME_METRICS[spans[owner][0]]] += own[index]
    metrics.pop(None, None)
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    metrics["cli.import_s"] += dump["import_end"] - launch
    metrics["cli.exit_s"] += exit_time - dump["end"]
    metrics["cli.other_s"] += dump["end"] - dump["import_end"] - covered
    return metrics


PER_LAYER = sorted(set(TIME_METRICS.values()) | set(COUNT_METRICS)) + [
    "cli.import_s",
    "cli.exit_s",
    "cli.other_s",
    "cli.output_bytes",
    "trace.overhead_s",
    "trace.wall_s",
]


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name's suffix."""
    return "s" if name.endswith("_s") else "B" if name.endswith("_bytes") else "count"
