"""Workload inputs, op execution and output checks.

Every op runs through the public entry point ``stoched.cli.main`` in this
process, exactly as ``stoched <argv>`` would. Op inputs are pure
functions of (workload, seed, op index); the program only ever sees the
files and flags built here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = {
    "forecast": "tests/fixtures/j120_fix_a.sm",
    "update": "tests/fixtures/j60_fix_a.sm",
    "grid": "tests/fixtures/j30_fix_a.sm",
}
WORKLOADS = tuple(FIXTURES)

# Forecast N = 100k gives simulate 25 chunks of 4096; update N = 10k gives 3.
FORECAST_REPLICATES = 100_000
UPDATE_REPLICATES = 10_000
GRID_REPLICATES = 10_000
GRID_ROWS_PER_SEED = 3 * 4  # strategies x methods
LOG_SIGMA = 0.3  # spread of the realised durations behind a site log
LOG_NOISE_FRACTION = 0.1  # measurement noise sd as a share of the baseline

WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Instance:
    path: str  # relative to the checkout root
    activity_count: int
    baselines: tuple[float, ...]
    sinks: tuple[int, ...]
    makespan: float


@dataclass
class Op:
    index: int
    args: list[str]  # argv without --threads
    items: int  # replicates, observations or result rows
    files: dict[str, str] = field(default_factory=dict)  # written before the op
    observation_counts: list[int] | None = None

    def argv(self, threads: int) -> list[str]:
        return [*self.args, "--threads", str(threads)]


@dataclass
class Outcome:
    seconds: float
    output: bytes  # stdout, plus results.csv for the grid
    error: str | None  # None when the op exited 0 and passed its checks


def load_instance(path: str, root: Path) -> Instance:
    from stoched.network import compute_cpm
    from stoched.psplib import parse_sm, to_network

    inst = parse_sm((root / path).read_text(), instance_name=Path(path).stem)
    net, baselines = to_network(inst)
    return Instance(
        path=path,
        activity_count=net.activity_count,
        baselines=tuple(float(b) for b in baselines),
        sinks=net.sinks,
        makespan=compute_cpm(net, baselines).completion_time,
    )


def make_op(workload: str, seed: int, index: int, inst: Instance) -> Op:
    """The index-th op of a workload; identical for identical arguments."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    op_seed = rng.randrange(2**31)
    if workload == "forecast":
        return Op(
            index,
            ["forecast", inst.path, "--n", str(FORECAST_REPLICATES),
             "--seed", str(op_seed)],
            FORECAST_REPLICATES,
        )
    if workload == "update":
        log_path = f"{WORK_DIR}/update_{index}.log"
        text, counts = site_log(rng, inst)
        return Op(
            index,
            ["update", inst.path, log_path, "--n", str(UPDATE_REPLICATES),
             "--seed", str(op_seed)],
            sum(counts),
            files={log_path: text},
            observation_counts=counts,
        )
    if workload == "grid":
        conf_path = f"{WORK_DIR}/grid.conf"
        conf = "\n".join([
            f"instances = ../{inst.path}",
            "uncertainty = moderate",
            "strategy = none, periodic, continuous",
            "method = deterministic_cpm, static_mc, bayes_no_propagation, full_framework",
            f"replicate_count = {GRID_REPLICATES}",
            f"seeds = {op_seed}",
        ]) + "\n"
        return Op(
            index,
            ["experiment", conf_path, "--out", f"{WORK_DIR}/grid_out"],
            GRID_ROWS_PER_SEED,
            files={conf_path: conf},
        )
    raise ValueError(f"unknown workload {workload!r}")


def site_log(rng: random.Random, inst: Instance) -> tuple[str, list[int]]:
    """Observation file over a random quarter of the real activities,
    1-3 noisy measurements of one realised duration each.

    The measurement counts are a shuffled 1, 2, 3, 1, 2, 3, ... so every
    log holds the same number of measurements: ops then differ in which
    activities they touch, not in how much work they carry.
    """
    real = [i for i, b in enumerate(inst.baselines) if b > 0]
    chosen = sorted(rng.sample(real, len(real) // 4))
    per_activity = [1 + k % 3 for k in range(len(chosen))]
    rng.shuffle(per_activity)
    counts = [0] * inst.activity_count
    lines = ["# activity observed noise_sd"]
    for i, count in zip(chosen, per_activity):
        base = inst.baselines[i]
        realised = base * math.exp(rng.gauss(0.0, LOG_SIGMA))
        noise_sd = LOG_NOISE_FRACTION * base
        counts[i] = count
        for _ in range(count):
            lines.append(f"{i} {realised + rng.gauss(0.0, noise_sd)!r} {noise_sd!r}")
    return "\n".join(lines) + "\n", counts


def run_op(op: Op, threads: int, root: Path, inst: Instance, cli) -> Outcome:
    """Run one op through ``cli.main`` and check its output.

    ``cli.main`` is looked up at call time so that a tracer can wrap it.
    """
    for rel, text in op.files.items():
        (root / rel).write_text(text)
    command = op.args[0]
    csv_path = root / WORK_DIR / "grid_out" / "results.csv"
    if command == "experiment":
        shutil.rmtree(csv_path.parent, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(op.argv(threads))
    except Exception as exc:  # a crash is a failed op, not a failed benchmark
        code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    output = out.getvalue().encode()
    if code != 0:
        return Outcome(seconds, output, f"exit {code}: {err.getvalue().strip()[-300:]}")
    try:
        payload = json.loads(output)
        if command == "experiment":
            table = csv_path.read_bytes()
            output += table
            error = check_grid(payload, table.decode())
        else:
            error = check_forecast(payload, inst, op)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    return Outcome(seconds, output, error)


def check_forecast(p: dict, inst: Instance, op: Op) -> str | None:
    """Invariants of a forecast or update payload; None when all hold."""
    crit = p["critical_probability"]
    if any(crit[s] != 1.0 for s in inst.sinks):
        return "a sink has criticality below 1"
    if not all(0.0 <= x <= 1.0 for x in [*crit, p["delay_probability"]]):
        return "probability outside [0, 1]"
    q = p["quantiles"]
    if not q["0.05"] <= q["0.5"] <= q["0.95"]:
        return f"quantiles out of order: {q}"
    if op.args[0] == "forecast":
        if not p["expected_completion"] >= inst.makespan:
            return "E[T] below the deterministic makespan"
        return None
    if p["observation_counts"] != op.observation_counts:
        return "observation_counts differ from the site log"
    if not all(math.isfinite(x) for x in p["posterior_expected_durations"]):
        return "non-finite posterior mean"
    return None


def check_grid(payload: dict, table: str) -> str | None:
    rows = list(csv.reader(io.StringIO(table)))
    if payload["rows"] != GRID_ROWS_PER_SEED or len(rows) != GRID_ROWS_PER_SEED + 1:
        return f"expected {GRID_ROWS_PER_SEED} rows, got {payload['rows']}/{len(rows) - 1}"
    header = rows[0]
    for row in rows[1:]:
        if len(row) != len(header):
            return f"row has {len(row)} fields, header {len(header)}"
        int(row[4])
        for value in row[5:]:
            if not math.isfinite(float(value)):
                return f"non-finite value in row {row}"
    return None


def digest(outputs: list[bytes]) -> str:
    h = hashlib.sha256()
    for blob in outputs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()
