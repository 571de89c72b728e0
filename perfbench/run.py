"""prtail benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a prtail checkout:

    python3 perfbench/run.py --workload model --seed 1 --seconds 8 --trace 0

Workloads: model, compare, graph, oracle (see workloads.py and
README.md). Each round runs the workload's program processes one at
a time; rounds repeat until --seconds of measured time have passed
and the workload's minimum number of rounds is reached.
The first round whose processes all succeed has its outputs checked;
every round's output files are hashed and must match that round and
any earlier run of the same workload and seed in this checkout.

--trace 0 prints the end-to-end metrics: wall_s (wall time of the
fastest round, interpreter start included), setup_s (fastest of the
fresh processes that import the entry point and exit) and
peak_rss_mib. Times are best-of: on a shared host other tenants slow
whole stretches of a run, by up to 70% here, and the fastest round is
the one they disturbed least.
--trace 1 adds one traced round and prints the per-layer metrics.
The last line of standard output is the JSON result; the line before
it records the environment. Scratch files live in .bench_build/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
DEADLINE_S = 175
# the traced round must leave at most this share of its wall time
# outside every span
MAX_UNTRACED_SHARE = 0.05

PROBE = """
import json, os, platform
import numpy, scipy
import prtail, prtail.accel
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({
    "prtail": os.path.dirname(os.path.abspath(prtail.__file__)),
    "backend": prtail.accel.backend(),
    "numba": numba_version,
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "nproc": len(os.sched_getaffinity(0)),
}))
"""


def _deadline(signum, frame):
    raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PRTAIL_DISABLE_NUMBA"] = "1"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, threads)
    return env


def run_process(argv: list, env: dict, log_path: str) -> tuple[float, float, int, object]:
    """Run one child to its end: (launch, exit, exit code, resource usage)."""
    with open(log_path, "wb") as log:
        launch = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return launch, end, proc.returncode, usage


def tree_hashes(path: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(path)):
        digest = hashlib.sha256()
        with open(os.path.join(path, name), "rb") as fh:
            # in chunks: this process's pages count toward the max-RSS of
            # every child it spawns later
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        hashes[name] = digest.hexdigest()
    return hashes


def source_digest(*roots: str) -> str:
    """Digest of the Python sources under the given directories."""
    digest = hashlib.sha256()
    for root in roots:
        for folder, dirs, files in sorted(os.walk(root)):
            dirs.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


class Runner:
    """Rounds of one workload and seed, with their checks and hashes."""

    def __init__(self, workload, seed: int, env: dict, work: str, source: str):
        self.workload, self.seed, self.env = workload, seed, env
        self.round_dir = os.path.join(work, "round")
        self.log_dir = os.path.join(work, "logs")
        self.steps = workload.steps(seed, self.round_dir)
        # earlier runs of the very same program invocations, on the very
        # same sources, recorded their output hashes under this key
        invocations = json.dumps([source] + [[s.entry, *s.args] for s in self.steps])
        key = hashlib.sha256(invocations.encode()).hexdigest()
        self.cache = os.path.join(work, f"hashes-{key[:16]}.json")
        self.reference = {}
        if os.path.exists(self.cache):
            with open(self.cache) as fh:
                self.reference = {int(k): v for k, v in json.load(fh).items()}
        self.cached = bool(self.reference)
        self.attempted = self.failed = 0
        self.checked = False
        self.correct = True

    def argv(self, step, spans: str | None) -> list:
        if spans is not None:
            return [sys.executable, os.path.join(HERE, "traced.py"), spans, step.entry, *step.args]
        if step.entry == "cli":
            return [sys.executable, "-m", "prtail", *step.args]
        return [sys.executable, os.path.join(HERE, "oracle.py"), *step.args]

    def round(self, traced: bool = False) -> dict:
        """One round; returns its wall time, peak RSS, output bytes and,
        when traced, its layer metrics."""
        shutil.rmtree(self.round_dir, ignore_errors=True)
        os.makedirs(self.log_dir, exist_ok=True)
        result = {"wall": 0.0, "rss": 0.0, "bytes": 0, "layers": Counter()}
        all_ok = True
        for index, step in enumerate(self.steps):
            os.makedirs(step.out, exist_ok=True)
            spans = os.path.join(self.log_dir, f"spans-{index}.json") if traced else None
            log = os.path.join(self.log_dir, f"step-{index}.log")
            launch, end, code, usage = run_process(self.argv(step, spans), self.env, log)
            result["wall"] += end - launch
            result["rss"] = max(result["rss"], usage.ru_maxrss / 1024.0)
            self.attempted += 1
            ok = code == 0
            if not ok:
                print(f"{self.workload.name} step {index} exited with {code}; see {log}", file=sys.stderr)
            else:
                result["bytes"] += tree_bytes(step.out)
                hashes = tree_hashes(step.out)
                expected = self.reference.setdefault(index, hashes)
                if hashes != expected:
                    ok = False
                    print(f"{self.workload.name} step {index}: outputs differ from an earlier run "
                          "of the same command", file=sys.stderr)
                if traced:
                    with open(spans) as fh:
                        result["layers"] += tracing.process_metrics(json.load(fh), launch, end)
            self.failed += not ok
            all_ok &= ok
        if all_ok and not self.checked:
            self.checked = True
            check = [sys.executable, os.path.join(HERE, "checks.py"),
                     self.workload.name, str(self.seed), self.round_dir]
            if subprocess.run(check, stdout=subprocess.DEVNULL, timeout=120).returncode != 0:
                self.correct = False
        return result

    def save_reference(self) -> None:
        if not self.cached and self.reference:
            tmp = self.cache + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(self.reference, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.cache)


def probe(env: dict, src: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise SystemExit(f"error: prtail does not import from {src}:\n{done.stderr}")
    found = json.loads(done.stdout.splitlines()[-1])
    if os.path.realpath(found["prtail"]) != os.path.realpath(os.path.join(src, "prtail")):
        raise SystemExit(f"error: prtail imports from {found['prtail']}, not from {src}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "prtail", "cli.py")):
        print(f"error: {root} holds no prtail source tree (src/prtail)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _deadline)
    signal.signal(signal.SIGTERM, _terminate)
    signal.alarm(DEADLINE_S)

    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_build", "perfbench", workload.name)
    os.makedirs(work, exist_ok=True)
    env = child_env(src)
    # the probe also compiles and caches bytecode, so no timed process
    # pays for it
    environment = probe(env, src)

    metrics = {}
    runner = Runner(workload, args.seed, env, work, source_digest(src, HERE))
    if not args.trace:
        setup_log = os.path.join(work, "setup.log")
        setups = []
        for _ in range(SETUP_REPEATS):
            launch, end, code, _ = run_process([sys.executable, *workload.setup], env, setup_log)
            if code != 0:
                raise SystemExit(f"error: set-up process exited with {code}; see {setup_log}")
            setups.append(end - launch)
        metrics["setup_s"] = {"value": min(setups), "unit": "s"}

    rounds = []
    while len(rounds) < workload.min_rounds or sum(r["wall"] for r in rounds) < args.seconds:
        rounds.append(runner.round())
    untraced_wall = min(r["wall"] for r in rounds)
    if args.trace:
        traced = runner.round(traced=True)
        layers = traced["layers"]
        layers["cli.output_bytes"] = traced["bytes"]
        layers["trace.wall_s"] = traced["wall"]
        layers["trace.overhead_s"] = traced["wall"] - untraced_wall
        if layers["cli.other_s"] > MAX_UNTRACED_SHARE * traced["wall"]:
            runner.correct = False
            print(f"{workload.name}: {layers['cli.other_s']:.3f} s of the traced "
                  f"{traced['wall']:.3f} s is outside every span", file=sys.stderr)
        metrics = {name: {"value": layers[name], "unit": tracing.unit(name)} for name in tracing.PER_LAYER}
    else:
        metrics["wall_s"] = {"value": untraced_wall, "unit": "s"}
        metrics["peak_rss_mib"] = {"value": max(r["rss"] for r in rounds), "unit": "MiB"}
    runner.save_reference()

    result = {
        "correct": runner.correct and runner.checked,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": environment, "round_walls": [r["wall"] for r in rounds], **result}
    with open(os.path.join(work, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
