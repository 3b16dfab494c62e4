"""Shared test helpers: fixture loading, small networks, random DAGs,
and the lognormal log-density oracle."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from stoched.durations import LognormalParams
from stoched.network import ProjectNetwork, build_network, enumerate_paths

FIXTURE_DIR = Path(__file__).parent / "fixtures"

FIXTURE_JOB_COUNTS = {
    "j30_fix_a.sm": 32,
    "j30_fix_b.sm": 32,
    "j60_fix_a.sm": 62,
    "j60_fix_b.sm": 62,
    "j120_fix_a.sm": 122,
    "j120_fix_b.sm": 122,
}


def read_fixture(name: str) -> str:
    return (FIXTURE_DIR / name).read_text()


def diamond() -> ProjectNetwork:
    """Source 0, parallel branch activities 1 and 2, sink 3."""
    return build_network(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def random_dag(rng: np.random.Generator, n: int, p: float = 0.35) -> ProjectNetwork:
    """Random DAG on n activities: edges go forward along a random
    permutation, so acyclicity holds by construction."""
    order = rng.permutation(n)
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((int(order[a]), int(order[b])))
    if not edges and n >= 2:
        edges.append((int(order[0]), int(order[1])))
    return build_network(n, edges)


def path_max(net: ProjectNetwork, durations) -> float:
    """Longest-path completion time via exhaustive path enumeration —
    the independent route against the forward/backward CPM kernel. Each
    path is summed left to right, the order in which the forward pass
    adds, so the two agree to the last bit."""
    d = [float(x) for x in durations]

    def length(path) -> float:
        total = 0.0
        for i in path:
            total += d[i]
        return total

    return max(length(path) for path in enumerate_paths(net))


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def log_pdf(p: LognormalParams, x: float) -> float:
    """Lognormal log-density; -inf for x <= 0 (support constraint)."""
    if x <= 0:
        return -math.inf
    z = (math.log(x) - p.mu) / p.sigma
    return -math.log(x) - math.log(p.sigma) - _LOG_SQRT_2PI - 0.5 * z * z


@pytest.fixture
def j30_net_and_baselines():
    from stoched.psplib import parse_sm, to_network

    inst = parse_sm(read_fixture("j30_fix_a.sm"), instance_name="j30_fix_a")
    return to_network(inst)
