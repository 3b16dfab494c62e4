"""Precedence networks and the critical path method (CPM) kernel.

A project is a DAG of activities; completion time is the longest
source-to-sink path measured in activity durations. The kernel here is
batched and activity-major: it takes an (activities, replicates) duration
matrix, one row per activity, and walks the topological order folding
whole predecessor (forward) or successor (backward) rows in place. That
is what the Monte Carlo engine runs per chunk of replicates. The scalar
compute_cpm is the single-column view of the same code path. Both return
only what callers read: completion time, earliest finishes and the
critical mask, with the shapes given on CpmResult.
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


def cpm_batch(net: ProjectNetwork, durations: np.ndarray) -> CpmResult:
    """Forward/backward pass for an (activities, replicates) duration matrix."""
    durations = np.ascontiguousarray(durations, dtype=np.float64)
    if durations.ndim != 2 or durations.shape[0] != net.activity_count:
        raise LengthMismatch(
            f"duration matrix must have {net.activity_count} rows, "
            f"got shape {durations.shape}"
        )
    if not np.all(np.isfinite(durations)) or np.any(durations < 0):
        raise ValueError("durations must be finite and >= 0")

    shape = durations.shape
    es, ef = np.zeros(shape), np.empty(shape)
    for i in net.topo_order:
        row, preds = es[i], net.predecessors[i]
        if preds:
            row[:] = ef[preds[0]]
            for p in preds[1:]:
                np.maximum(row, ef[p], out=row)
        np.add(row, durations[i], out=ef[i])

    completion = ef[list(net.sinks)].max(axis=0)

    # Every sink is anchored at the batch completion time, so a sink that
    # finishes early carries positive float instead of defining its own
    # deadline. Each ls row first holds the latest finish, then has its
    # duration subtracted in place.
    ls = np.empty(shape)
    for i in reversed(net.topo_order):
        row, succs = ls[i], net.successors[i]
        row[:] = ls[succs[0]] if succs else completion
        for s in succs[1:]:
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
