"""Precedence DAG construction and the CPM forward/backward kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diamond, path_max, random_dag
from stoched.errors import (
    CycleDetected,
    DuplicateEdge,
    InvalidEdge,
    LengthMismatch,
    PathBudgetExceeded,
)
from stoched.network import (
    FLOAT_EPSILON_SCALE,
    build_network,
    compute_cpm,
    cpm_batch,
    enumerate_paths,
)


def test_diamond_cpm_by_hand():
    net = diamond()
    r = compute_cpm(net, [2.0, 3.0, 5.0, 2.0])
    assert r.completion_time == 9.0
    assert np.array_equal(r.earliest_finish, [2.0, 5.0, 7.0, 9.0])
    assert np.array_equal(r.critical_mask, [True, False, True, True])


def test_build_network_validates_edges():
    with pytest.raises(InvalidEdge):
        build_network(3, [(0, 5)])
    with pytest.raises(InvalidEdge):
        build_network(3, [(-1, 2)])
    with pytest.raises(InvalidEdge):
        build_network(3, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        build_network(3, [(0, 1), (0, 1)])
    with pytest.raises(CycleDetected):
        build_network(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleDetected):
        build_network(4, [(0, 1), (1, 2), (2, 3), (3, 1)])


def test_topo_order_respects_every_edge():
    rng = np.random.default_rng(17)
    for _ in range(20):
        net = random_dag(rng, int(rng.integers(2, 15)))
        rank = {a: r for r, a in enumerate(net.topo_order)}
        assert sorted(net.topo_order) == list(range(net.activity_count))
        for u, v in net.edges:
            assert rank[u] < rank[v]


def test_sources_and_sinks():
    net = diamond()
    assert net.sources == (0,)
    assert net.sinks == (3,)
    lone = build_network(2, [])
    assert lone.sources == (0, 1)
    assert lone.sinks == (0, 1)


def test_completion_matches_path_enumeration_on_random_dags():
    rng = np.random.default_rng(23)
    for _ in range(50):
        net = random_dag(rng, int(rng.integers(2, 13)))
        durations = rng.integers(0, 10, size=net.activity_count).astype(float)
        assert compute_cpm(net, durations).completion_time == path_max(net, durations)


def test_critical_set_contains_a_full_path():
    rng = np.random.default_rng(29)
    for _ in range(25):
        net = random_dag(rng, int(rng.integers(2, 12)))
        durations = rng.uniform(0.0, 10.0, size=net.activity_count)
        r = compute_cpm(net, durations)
        # at least one full source-to-sink path lies inside the critical set
        critical = set(np.flatnonzero(r.critical_mask))
        assert any(
            set(path) <= critical for path in enumerate_paths(net)
        )


def test_cpm_batch_columns_equal_single_runs():
    rng = np.random.default_rng(31)
    net = random_dag(rng, 9)
    matrix = rng.uniform(0.0, 6.0, size=(8, 9))
    batch = cpm_batch(net, matrix.T)
    for k in range(8):
        single = compute_cpm(net, matrix[k])
        assert batch.completion_time[k] == single.completion_time
        assert np.array_equal(batch.earliest_finish[:, k], single.earliest_finish)
        assert np.array_equal(batch.critical_mask[:, k], single.critical_mask)


def test_cpm_input_validation():
    net = diamond()
    with pytest.raises(LengthMismatch):
        compute_cpm(net, [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        cpm_batch(net, np.ones((3, 2)))
    with pytest.raises(LengthMismatch):  # replicate-major input
        cpm_batch(net, np.ones((3, 4)))
    with pytest.raises(ValueError):
        compute_cpm(net, [1.0, -2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        compute_cpm(net, [1.0, np.nan, 3.0, 4.0])


def test_enumerate_paths_diamond_and_budget():
    net = diamond()
    assert enumerate_paths(net) == [(0, 1, 3), (0, 2, 3)]
    with pytest.raises(PathBudgetExceeded):
        enumerate_paths(net, max_paths=1)


def test_multiple_sinks_anchor_at_common_completion():
    # 0 -> 1 (short) and 0 -> 2 (long): the early sink still carries
    # positive float because completion is the max over sinks, so it is
    # not critical.
    net = build_network(3, [(0, 1), (0, 2)])
    r = compute_cpm(net, [1.0, 2.0, 5.0])
    assert r.completion_time == 6.0
    assert not r.critical_mask[1]
    assert r.critical_mask[2]


# Durations that tie exactly, are zero, or round when summed (0.1 + 0.2 -
# 0.2 != 0.1). Ties make several paths critical at once, and rounded sums
# leave a total float of a few ulps that only the relative epsilon marks
# critical, so the mask is checked where it is easiest to get wrong.
_DURATION = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 1e-9]),
    st.floats(0.0, 100.0),
)


@st.composite
def _dag_and_durations(draw):
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    r = draw(st.integers(1, 4))
    columns = draw(st.lists(st.lists(_DURATION, min_size=n, max_size=n), min_size=r, max_size=r))
    return build_network(n, edges), edges, columns


def _scalar_cpm(n, edges, d):
    """Plain-Python forward/backward pass over one duration vector."""
    preds = [[u for u, v in edges if v == i] for i in range(n)]
    succs = [[v for u, v in edges if u == i] for i in range(n)]
    es, ef = [None] * n, [None] * n
    while None in ef:
        for i in range(n):
            if ef[i] is None and all(ef[p] is not None for p in preds[i]):
                es[i] = max((ef[p] for p in preds[i]), default=0.0)
                ef[i] = es[i] + d[i]
    t = max(ef[i] for i in range(n) if not succs[i])
    ls, lf = [None] * n, [None] * n
    while None in ls:
        for i in range(n):
            if ls[i] is None and all(ls[s] is not None for s in succs[i]):
                lf[i] = min((ls[s] for s in succs[i]), default=t)
                ls[i] = lf[i] - d[i]
    tf = [ls[i] - es[i] for i in range(n)]
    crit = [f <= FLOAT_EPSILON_SCALE * max(1.0, t) for f in tf]
    return t, ef, crit


@settings(max_examples=300, deadline=None)
@given(_dag_and_durations())
def test_cpm_batch_matches_scalar_passes(case):
    net, edges, columns = case
    n = net.activity_count
    batch = cpm_batch(net, np.array(columns).T)
    for k, d in enumerate(columns):
        t, ef, crit = _scalar_cpm(n, edges, d)
        assert batch.completion_time[k] == t == path_max(net, d)
        assert batch.earliest_finish[:, k].tolist() == ef
        assert batch.critical_mask[:, k].tolist() == crit
