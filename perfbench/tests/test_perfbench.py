"""Tests of the benchmark itself: inputs, tracer and a smoke run.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import run
import tracer
import workloads

ROOT = run.ROOT


@pytest.fixture(scope="module")
def instances():
    return {w: workloads.load_instance(p, ROOT) for w, p in workloads.FIXTURES.items()}


@pytest.fixture
def work_dir(monkeypatch):
    monkeypatch.chdir(ROOT)
    (ROOT / workloads.WORK_DIR).mkdir(exist_ok=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload, instances):
    inst = instances[workload]
    first = [workloads.make_op(workload, 7, i, inst) for i in range(4)]
    again = [workloads.make_op(workload, 7, i, inst) for i in range(4)]
    other = [workloads.make_op(workload, 8, i, inst) for i in range(4)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))
    assert len({repr(op.args) + repr(op.files) for op in first}) == 4


def test_site_log_covers_a_quarter_with_one_to_three_measurements(instances):
    inst = instances["update"]
    op = workloads.make_op("update", 3, 0, inst)
    counts = op.observation_counts
    real = sum(1 for b in inst.baselines if b > 0)
    assert sum(1 for c in counts if c) == real // 4
    assert all(c in (0, 1, 2, 3) for c in counts)
    assert all(inst.baselines[i] > 0 for i, c in enumerate(counts) if c)
    (text,) = op.files.values()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(lines) == sum(counts) == op.items


def _stoched_bindings():
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "stoched" or name.startswith("stoched.")
        for key, value in vars(mod).items()
        if callable(value)
    }


def _small_ops(inst_j30):
    forecast = workloads.Op(
        0, ["forecast", inst_j30.path, "--n", "9000", "--seed", "5"], 9000)
    update = workloads.make_op("update", 1, 0, inst_j30)
    update.args[update.args.index("--n") + 1] = "3000"
    return forecast, update


def test_tracer_restores_names_and_keeps_outputs(instances, work_dir):
    import stoched.cli

    inst = workloads.load_instance(workloads.FIXTURES["grid"], ROOT)
    before = _stoched_bindings()
    for op in _small_ops(inst):
        plain = workloads.run_op(op, 2, ROOT, inst, stoched.cli)
        with tracer.Tracer() as t:
            assert stoched.cli.main is not before[("stoched.cli", "main")]
            traced = workloads.run_op(op, 2, ROOT, inst, stoched.cli)
        assert plain.error is None and traced.error is None
        assert traced.output == plain.output
        names = {s.name for s in t.spans}
        assert {"cli.main", "psplib.parse_sm", "simulate", "rng.normals",
                "network.cpm_batch", "network.compute_cpm"} <= names
        if op.args[0] == "update":
            assert {"bayes.map_update", "bayes.marginal_log_likelihood"} <= names
        after = _stoched_bindings()
        assert all(after[k] is v for k, v in before.items())


def test_tracer_counts_every_call_from_many_threads():
    import stoched.cli  # noqa: F401  imports every traced module

    calls, workers = 400, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.Tracer() as t:
            draw = vars(sys.modules["stoched.simulate"])["normals"]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(draw, 1, np.arange(8, dtype=np.uint64))
                           for _ in range(calls)]
                for f in futures:
                    f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(t.spans) == calls
    assert sum(s.work for s in t.spans) == 8 * calls


def test_self_time_subtracts_the_union_of_concurrent_children():
    S = tracer.Span
    spans = [
        S("simulate", 0.0, 10.0, 1),
        S("rng.normals", 1.0, 4.0, 1),  # two pool threads overlap here
        S("network.cpm_batch", 2.0, 5.0, 1),
        S("rng.normals", 7.0, 8.0, 1),
        S("rng.normals", 9.5, 11.0, 1),  # runs past the parent's end
    ]
    got = tracer.self_time(spans, lambda n: n == "simulate",
                           lambda n: n != "simulate")
    assert got == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 41)]
    assert run.tail(values) == (30.0, "p75.0 of 40 ops")
    assert run.tail(values[:21]) == (11.0, "p52.4 of 21 ops")
    assert run.tail(values[:4])[0] == 2.5  # no tail: the median


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = []
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench("--workload", workload, "--seed", "2", "--seconds", "0.1",
                      "--trace", trace)
        assert done.returncode == 0, done.stderr
        *table, last = done.stdout.splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert {m["name"]: m["unit"] for m in spec[section]} == {
            name: m["unit"] for name, m in result["metrics"].items()}
        text = "\n".join(table)
        for m in spec[section]:
            assert m["name"] in text and m["unit"] in text
        digests += [line.split()[1] for line in table if "outputs_sha256" in line]
    # The traced pass must not move a byte of output.
    assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench("--workload", "forecast", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
