"""stoched benchmark: forecast, update and grid workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forecast --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One caller runs ops back to back (a closed loop) through
``stoched.cli.main`` with ``--threads 2`` for ``--seconds`` seconds.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs every op untraced, traced, and traced on one
thread, and reports per-layer metrics, the tracing overhead and the
thread speedup. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from workloads import FIXTURES, WORK_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREADS = 2  # = nproc of the machine the benchmark was defined on
SETUP_REPEATS = 3
OP_POOL = 128  # distinct op inputs per run; a longer run cycles through them
DIGEST_OPS = 3  # the warm-up and the first two timed ops; every run reaches them

# The names the workloads' metrics go by in the benchmark's documentation.
ALIASES = {
    ("forecast", "work_per_s"): "forecast_replicates_per_s",
    ("forecast", "op_p50_s"): "forecast_p50_s",
    ("forecast", "op_tail_s"): "forecast_tail_s",
    ("update", "work_per_s"): "update_observations_per_s",
    ("update", "op_p50_s"): "update_p50_s",
    ("update", "op_tail_s"): "update_tail_s",
    ("grid", "work_per_s"): "grid_cells_per_s",
}


def setup(workload: str, seed: int):
    """Import stoched from this checkout, load the instance, build op inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    import stoched.cli

    inst = workloads.load_instance(FIXTURES[workload], ROOT)
    ops = [workloads.make_op(workload, seed, i, inst) for i in range(OP_POOL)]
    return stoched.cli, inst, ops


def timed_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to it being ready to run."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--setup-only", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed (exit {code})")
    return elapsed


class Tally:
    """Ops attempted and failed, with the outputs that feed the digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.outputs: list[bytes] = []

    def add(self, op, outcome, error=None, rerun=False) -> None:
        self.attempted += 1
        error = error or outcome.error
        if error:
            self.errors.append(f"op {op.index}: {error}")
        if not rerun and len(self.outputs) < DIGEST_OPS:
            self.outputs.append(outcome.output)


def tail(seconds: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten ops beyond it. A run of 20
    ops or fewer has no such percentile above the median: it reports p50."""
    n = len(seconds)
    if n <= 20:
        return statistics.median(seconds), f"p50 of {n} ops (too few for a tail)"
    return sorted(seconds)[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops"


def timed_run(workload: str, seed: int, seconds: float):
    setups = [timed_setup(workload, seed) for _ in range(SETUP_REPEATS)]
    cli, inst, ops = setup(workload, seed)
    tally = Tally()
    tally.add(ops[0], workloads.run_op(ops[0], THREADS, ROOT, inst, cli))  # warm-up

    latencies: list[float] = []
    items = 0
    deadline = time.perf_counter() + seconds
    i = 1
    while len(latencies) < DIGEST_OPS - 1 or time.perf_counter() < deadline:
        op = ops[i % OP_POOL]
        outcome = workloads.run_op(op, THREADS, ROOT, inst, cli)
        tally.add(op, outcome)
        latencies.append(outcome.seconds)
        items += op.items
        i += 1

    tail_s, tail_label = tail(latencies)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh-interpreter set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "1 process"),
        "op_p50_s": (statistics.median(latencies), f"median of {n} ops"),
        "op_tail_s": (tail_s, tail_label),
        "work_per_s": (items / sum(latencies), f"{items} items over {n} ops"),
    }
    return tally, metrics


def traced_run(workload: str, seed: int, seconds: float):
    cli, inst, ops = setup(workload, seed)
    tally = Tally()
    tally.add(ops[0], workloads.run_op(ops[0], THREADS, ROOT, inst, cli))  # warm-up

    spans: list[tracer.Span] = []
    single_spans: list[tracer.Span] = []
    plain_s = traced_s = 0.0
    n = 0
    deadline = time.perf_counter() + seconds
    while n < DIGEST_OPS - 1 or time.perf_counter() < deadline:
        n += 1
        op = ops[n % OP_POOL]
        plain = workloads.run_op(op, THREADS, ROOT, inst, cli)
        tally.add(op, plain)
        with tracer.Tracer() as t:
            traced = workloads.run_op(op, THREADS, ROOT, inst, cli)
        spans += t.spans
        tally.add(op, traced, None if traced.output == plain.output
                  else "traced output differs", rerun=True)
        with tracer.Tracer() as t:
            single = workloads.run_op(op, 1, ROOT, inst, cli)
        single_spans += t.spans
        tally.add(op, single, None if single.output == plain.output
                  else "--threads 1 output differs", rerun=True)
        plain_s += plain.seconds
        traced_s += traced.seconds

    values = tracer.layer_metrics(spans, n)
    sim_busy = [sum(s.end - s.start for s in group if s.name == "simulate")
                for group in (single_spans, spans)]
    values["simulate.thread_speedup"] = sim_busy[0] / sim_busy[1] if sim_busy[1] else 0.0
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics = {name: (value, f"{n} traced ops") for name, value in values.items()}
    return tally, metrics


def environment() -> str:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, cpu_count {os.cpu_count()}, src lines {src_lines}")


def report(workload: str, args, tally: Tally, metrics: dict, units: dict) -> dict:
    """Print the human-readable table; return the result object."""
    print(f"stoched benchmark: workload={workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} threads={THREADS}")
    print(f"  environment: {environment()}")
    for name, unit in units.items():
        value, samples = metrics[name]
        alias = ALIASES.get((workload, name))
        label = f"{name} ({alias})" if alias else name
        print(f"  {label:44s} {value:14.6g} {unit:13s} {samples}")
    failed = len(tally.errors)
    print(f"  {'ops_failed_frac':44s} {failed / tally.attempted:14.6g} {'fraction':13s} "
          f"{failed} of {tally.attempted} ops")
    print(f"  {'outputs_sha256':44s} {workloads.digest(tally.outputs)} "
          f"(first {len(tally.outputs)} ops)")
    for error in tally.errors[:10]:
        print(f"failed {error}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()
        },
    }


def run_all(args) -> int:
    """Each workload in its own fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ["src/stoched/cli.py", *FIXTURES.values()] if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a stoched checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    run = traced_run if args.trace else timed_run
    tally, metrics = run(args.workload, args.seed, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    print(json.dumps(report(args.workload, args, tally, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
