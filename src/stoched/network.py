"""Precedence networks and the critical path method (CPM) kernel.

A project is a DAG of activities; completion time is the longest
source-to-sink path measured in activity durations. The kernel here is
batched and activity-major: it takes an (activities, replicates) duration
matrix, one row per activity, and walks the topological order folding
whole predecessor (forward) or successor (backward) rows in place. That
is what the Monte Carlo engine runs per chunk of replicates: cpm_batch,
or its forward pass alone, finish_times, where no criticality is read.
The scalar compute_cpm is cpm_batch's single-column view. Each returns
only what callers read, with the shapes given on CpmResult.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleDetected,
    DuplicateEdge,
    InvalidEdge,
    LengthMismatch,
    NonFiniteResult,
    PathBudgetExceeded,
)

# Criticality tolerance is relative to the makespan: backward-pass
# rounding grows with path length, a fixed absolute epsilon does not.
FLOAT_EPSILON_SCALE = 1e-9


@dataclass(frozen=True)
class ProjectNetwork:
    """Immutable activity-on-node precedence DAG with cached structure."""

    activity_count: int
    edges: tuple[tuple[int, int], ...]
    predecessors: tuple[tuple[int, ...], ...]
    successors: tuple[tuple[int, ...], ...]
    topo_order: tuple[int, ...]
    sources: tuple[int, ...]
    sinks: tuple[int, ...]


@dataclass(frozen=True)
class CpmResult:
    """Completion time, earliest finishes, and which activities have zero
    total float (to within FLOAT_EPSILON_SCALE * max(1, makespan)).

    From cpm_batch: (R,), (n, R) and (n, R) bool, a column per replicate.
    From compute_cpm: a float and two (n,) columns.
    """

    completion_time: float | np.ndarray
    earliest_finish: np.ndarray
    critical_mask: np.ndarray


def build_network(n: int, edges) -> ProjectNetwork:
    """Validate edges, cache adjacency and a canonical topological order.

    Raises InvalidEdge for out-of-range endpoints or self-loops,
    DuplicateEdge for repeated pairs, CycleDetected when no topological
    order exists.
    """
    if n < 1:
        raise InvalidEdge(f"activity count must be >= 1, got {n}")
    edge_list: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidEdge(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise InvalidEdge(f"self-loop on activity {u}")
        if (u, v) in seen:
            raise DuplicateEdge(f"edge ({u}, {v}) given more than once")
        seen.add((u, v))
        edge_list.append((u, v))
        succs[u].append(v)
        preds[v].append(u)

    # Kahn's algorithm with a min-heap: the smallest ready activity goes
    # next, which makes topo_order canonical for a given edge set.
    indegree = [len(p) for p in preds]
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    topo: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        topo.append(i)
        for j in succs[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    if len(topo) != n:
        raise CycleDetected("precedence graph contains a directed cycle")

    rank = {a: r for r, a in enumerate(topo)}
    return ProjectNetwork(
        activity_count=n,
        edges=tuple(edge_list),
        predecessors=tuple(tuple(sorted(p, key=rank.__getitem__)) for p in preds),
        successors=tuple(tuple(sorted(s, key=rank.__getitem__)) for s in succs),
        topo_order=tuple(topo),
        sources=tuple(i for i in range(n) if not preds[i]),
        sinks=tuple(i for i in range(n) if not succs[i]),
    )


def finish_times(net: ProjectNetwork, durations: np.ndarray, ef, es=None) -> np.ndarray:
    """Forward pass: the (R,) completion times of an (activities, R)
    duration matrix. It overwrites ef, and es when given (float64 arrays
    of the matrix's shape), with earliest finishes and starts; without es
    each ef row folds its predecessors' maximum, then adds its duration."""
    durations = np.ascontiguousarray(durations, dtype=np.float64)
    if durations.ndim != 2 or durations.shape[0] != net.activity_count:
        raise LengthMismatch(
            f"duration matrix must have {net.activity_count} rows, "
            f"got shape {durations.shape}"
        )
    # NaN fails both comparisons; reductions allocate no (n, R) temporary
    if durations.size and not (durations.min() >= 0 and durations.max() < np.inf):
        raise ValueError("durations must be finite and >= 0")

    starts = ef if es is None else es
    # The first max of two or more rows reads two rows, so none is copied
    # first; the fold order is the predecessor order.
    with np.errstate(over="ignore"):
        for i in net.topo_order:
            row, preds = starts[i], net.predecessors[i]
            if len(preds) > 1:
                np.maximum(ef[preds[0]], ef[preds[1]], out=row)
            else:
                row[:] = ef[preds[0]] if preds else 0.0
            for p in preds[2:]:
                np.maximum(row, ef[p], out=row)
            np.add(row, durations[i], out=ef[i])

    # an overflowing finish time reaches a sink: every path ends at one
    completion = ef[list(net.sinks)].max(axis=0)
    if completion.size and not completion.max() < np.inf:
        raise NonFiniteResult("a completion time overflows double precision")
    return completion


def cpm_batch(
    net: ProjectNetwork, durations: np.ndarray, es=None, ef=None, ls=None
) -> CpmResult:
    """finish_times, then the backward pass, for an (activities, R) matrix.

    es, ef and ls, when given, are caller-owned float64 work arrays of the
    matrix's shape. The pass overwrites every cell of them and returns ef
    as earliest_finish.
    """
    durations = np.ascontiguousarray(durations, dtype=np.float64)
    es, ef, ls = (np.empty(durations.shape) if a is None else a for a in (es, ef, ls))
    completion = finish_times(net, durations, ef, es)

    # Every sink is anchored at the batch completion time, so a sink that
    # finishes early carries positive float instead of defining its own
    # deadline. Each ls row first holds the latest finish, then has its
    # duration subtracted in place.
    for i in reversed(net.topo_order):
        row, succs = ls[i], net.successors[i]
        if len(succs) > 1:
            np.minimum(ls[succs[0]], ls[succs[1]], out=row)
        else:
            row[:] = ls[succs[0]] if succs else completion
        for s in succs[2:]:
            np.minimum(row, ls[s], out=row)
        row -= durations[i]

    # Total float ls - es overwrites ls: nothing reads ls afterwards.
    eps = FLOAT_EPSILON_SCALE * np.maximum(1.0, completion)
    return CpmResult(
        completion_time=completion,
        earliest_finish=ef,
        critical_mask=np.subtract(ls, es, out=ls) <= eps,
    )


def compute_cpm(net: ProjectNetwork, durations) -> CpmResult:
    """CPM quantities for one duration vector (length LengthMismatch-checked)."""
    d = np.asarray(durations, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] != net.activity_count:
        raise LengthMismatch(
            f"expected {net.activity_count} durations, got shape {d.shape}"
        )
    batch = cpm_batch(net, d[:, None])
    return CpmResult(
        completion_time=float(batch.completion_time[0]),
        earliest_finish=batch.earliest_finish[:, 0],
        critical_mask=batch.critical_mask[:, 0],
    )


def enumerate_paths(net: ProjectNetwork, max_paths: int = 100_000) -> list[tuple[int, ...]]:
    """All source-to-sink paths, ordered lexicographically by topo rank.

    Exhaustive enumeration is exponential in general; it exists as an
    oracle for small networks and raises PathBudgetExceeded beyond
    max_paths rather than hanging.
    """
    rank = {a: r for r, a in enumerate(net.topo_order)}
    paths: list[tuple[int, ...]] = []
    stack: list[int] = []

    def visit(i: int) -> None:
        stack.append(i)
        succs = net.successors[i]
        if not succs:
            if len(paths) >= max_paths:
                raise PathBudgetExceeded(
                    f"more than {max_paths} source-to-sink paths"
                )
            paths.append(tuple(stack))
        else:
            for j in succs:
                visit(j)
        stack.pop()

    for source in sorted(net.sources, key=rank.__getitem__):
        visit(source)
    return paths
