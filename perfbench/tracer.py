"""Outside-in tracer for the stoched layers.

The program is traced without editing it: each traced function is
replaced, for the duration of a ``with Tracer():`` block, by a wrapper
bound under every module-level name in the ``stoched`` package that refers
to it. Modules bind functions by name (``from .network import cpm_batch``)
and the package ``__init__`` even shadows the ``stoched.simulate`` module
with the function, so patching only the defining module would miss most
calls; patching by identity across ``sys.modules`` catches them all.

Each call records a span (function, start, end, work count). Pool threads
call ``normals`` and ``cpm_batch`` concurrently, so spans are appended
under a lock and self times subtract the *union* of child intervals.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, NamedTuple

import numpy as np


def _one(args, kwargs, result) -> int:
    return 1


def _replicates(args, kwargs, result) -> int:
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return cfg.replicate_count


def _absorbed(args, kwargs, result) -> int:
    state = args[0] if args else kwargs["state"]
    return result.observation_count - state.observation_count


def _sampled_row(args, kwargs, result) -> int:
    return 0 if isinstance(result[1], float) else 1


# (span name, defining module, function name, work count of one call)
TRACED: tuple[tuple[str, str, str, Callable], ...] = (
    ("rng.normals", "stoched.rng", "normals", lambda a, k, r: int(np.size(r))),
    ("network.cpm_batch", "stoched.network", "cpm_batch",
     lambda a, k, r: int(r.critical_mask.size)),
    ("network.compute_cpm", "stoched.network", "compute_cpm", _one),
    ("simulate", "stoched.simulate", "simulate", _replicates),
    ("bayes.map_update", "stoched.bayes", "map_update", _absorbed),
    ("bayes.marginal_log_likelihood", "stoched.bayes",
     "marginal_log_likelihood", _one),
    ("experiment.run_matrix", "stoched.experiment", "run_matrix",
     lambda a, k, r: len(r)),
    ("experiment.run_method", "stoched.experiment", "run_method", _sampled_row),
    ("psplib.parse_sm", "stoched.psplib", "parse_sm", _one),
    ("cli.main", "stoched.cli", "main", _one),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    work: int


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Context manager that records spans of every TRACED function.

    Requires ``stoched.cli`` to be imported already (it imports every
    other module). All rebound names are restored on exit.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "stoched" or name.startswith("stoched."))
        ]
        try:
            for span_name, module, attr, work in TRACED:
                original = vars(sys.modules[module])[attr]
                wrapper = self._wrap(span_name, original, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _wrap(self, span_name: str, fn, work):
        spans, lock, clock = self.spans, self._lock, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            span = Span(span_name, t0, t1, work(args, kwargs, result))
            with lock:
                spans.append(span)
            return result

        return traced


def union(intervals) -> list[tuple[float, float]]:
    """Sorted disjoint cover of the given (start, end) intervals."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def measure(disjoint) -> float:
    return sum(b - a for a, b in disjoint)


def overlap(a, b) -> float:
    """Length of the intersection of two sorted disjoint interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_time(spans, parent: Callable[[str], bool], child: Callable[[str], bool]) -> float:
    """Time inside parent spans that no child span covers."""
    outer = union((s.start, s.end) for s in spans if parent(s.name))
    inner = union((s.start, s.end) for s in spans if child(s.name))
    return measure(outer) - overlap(outer, inner)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer metrics of traced ops, counts and times per op."""
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0) + s.work
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)

    def per_op(table, name):
        return table.get(name, 0) / ops

    op_time = busy.get("cli.main", 0.0)

    def share(layer):
        covered = union((s.start, s.end) for s in spans if layer_of(s.name) == layer)
        return _ratio(measure(covered), op_time)

    return {
        "rng.normals.calls": per_op(calls, "rng.normals"),
        "rng.normals.draws": per_op(work, "rng.normals"),
        "rng.normals.busy_s": per_op(busy, "rng.normals"),
        "rng.normals.ns_per_draw": 1e9 * _ratio(
            busy.get("rng.normals", 0.0), work.get("rng.normals", 0)),
        "rng.share": share("rng"),
        "network.cpm_batch.calls": per_op(calls, "network.cpm_batch"),
        "network.cpm_batch.cells": per_op(work, "network.cpm_batch"),
        "network.cpm_batch.busy_s": per_op(busy, "network.cpm_batch"),
        "network.cpm_batch.ns_per_cell": 1e9 * _ratio(
            busy.get("network.cpm_batch", 0.0), work.get("network.cpm_batch", 0)),
        "network.compute_cpm.calls": per_op(calls, "network.compute_cpm"),
        "network.compute_cpm.busy_s": per_op(busy, "network.compute_cpm"),
        "network.share": share("network"),
        "simulate.calls": per_op(calls, "simulate"),
        "simulate.replicates": per_op(work, "simulate"),
        "simulate.busy_s": per_op(busy, "simulate"),
        "simulate.self_s": self_time(
            spans, lambda n: n == "simulate",
            lambda n: n in ("rng.normals", "network.cpm_batch")) / ops,
        "simulate.share": share("simulate"),
        "bayes.map_update.calls": per_op(calls, "bayes.map_update"),
        "bayes.map_update.observations": per_op(work, "bayes.map_update"),
        "bayes.map_update.busy_s": per_op(busy, "bayes.map_update"),
        "bayes.map_update.self_s": self_time(
            spans, lambda n: n == "bayes.map_update",
            lambda n: n == "bayes.marginal_log_likelihood") / ops,
        "bayes.marginal_log_likelihood.calls": per_op(
            calls, "bayes.marginal_log_likelihood"),
        "bayes.marginal_log_likelihood.busy_s": per_op(
            busy, "bayes.marginal_log_likelihood"),
        "bayes.evals_per_update": _ratio(
            calls.get("bayes.marginal_log_likelihood", 0),
            calls.get("bayes.map_update", 0)),
        "bayes.share": share("bayes"),
        "experiment.run_method.calls": per_op(calls, "experiment.run_method"),
        "experiment.run_method.busy_s": per_op(busy, "experiment.run_method"),
        "experiment.self_s": self_time(
            spans, lambda n: layer_of(n) == "experiment",
            lambda n: layer_of(n) not in ("experiment", "cli")) / ops,
        # Rows carrying a sampled forecast per simulate call made for them.
        "experiment.simulate_useful_ratio": _ratio(
            work.get("experiment.run_method", 0), calls.get("simulate", 0)),
        "experiment.share": share("experiment"),
        "psplib.parse_sm.calls": per_op(calls, "psplib.parse_sm"),
        "psplib.parse_sm.busy_s": per_op(busy, "psplib.parse_sm"),
        "cli.main.calls": per_op(calls, "cli.main"),
        "cli.main.busy_s": per_op(busy, "cli.main"),
        "cli.self_s": self_time(
            spans, lambda n: n == "cli.main", lambda n: layer_of(n) != "cli") / ops,
    }
