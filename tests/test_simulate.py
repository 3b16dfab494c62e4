"""Monte Carlo completion forecasts: oracle equivalence and determinism.

The per-replicate completion values are cross-checked against an
independent route: the duration draws of sample_duration_matrix, the
function simulate() draws through, pushed through explicit path
enumeration. The draws themselves are checked against their counter
addresses on the rng stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import diamond, path_max, random_dag
from stoched.durations import FrozenDuration, priors_from_baselines
from stoched.errors import LengthMismatch
from stoched.network import build_network, compute_cpm, cpm_batch
from stoched.psplib import parse_sm, to_network
from stoched.rng import normals, stream_key
from stoched.simulate import (
    QUANTILE_LEVELS,
    SimulationConfig,
    delay_probability_from,
    sample_duration_matrix,
    simulate,
)
from conftest import read_fixture


def test_all_frozen_is_deterministic():
    net = diamond()
    per_activity = [FrozenDuration(v) for v in (2.0, 3.0, 5.0, 2.0)]
    cfg = SimulationConfig(replicate_count=64, seed=1, target_completion=9.0)
    r = simulate(net, per_activity, cfg)
    assert r.expected_completion == 9.0
    assert r.completion_variance == 0.0
    assert r.delay_probability == 0.0  # strictly-greater convention
    assert np.array_equal(r.critical_probability, [1.0, 0.0, 1.0, 1.0])
    assert np.all(r.samples == 9.0)
    assert r.ci90_width == 0.0


def test_one_frozen_replicate_is_the_cpm_makespan_bit_for_bit():
    # a point forecast: its row scores must be the CPM pass's, unrounded
    rng = np.random.default_rng(67)
    for trial in range(40):
        n = int(rng.integers(2, 14))
        net = random_dag(rng, n)
        durations = rng.lognormal(1.5, 0.8, size=n)
        durations[rng.random(n) < 0.2] = 0.0
        makespan = compute_cpm(net, durations).completion_time
        target = makespan * float(rng.choice([0.9, 1.0, 1.1]))
        cfg = SimulationConfig(replicate_count=1, seed=trial, target_completion=target)
        r = simulate(net, [FrozenDuration(float(d)) for d in durations], cfg)
        assert r.samples.shape == (1,)
        assert r.expected_completion == makespan
        assert r.completion_variance == 0.0
        assert r.ci90_width == 0.0
        assert r.delay_probability == (1.0 if makespan > target else 0.0)


def test_samples_match_path_enumeration_oracle():
    rng = np.random.default_rng(61)
    net = random_dag(rng, 8)
    per_activity = priors_from_baselines(rng.integers(1, 9, size=8), 0.4)
    cfg = SimulationConfig(replicate_count=100, seed=902, target_completion=20.0)
    r = simulate(net, per_activity, cfg)
    draws = sample_duration_matrix(net, per_activity, seed=902, row_start=0, row_stop=100)
    for k in range(100):
        assert r.samples[k] == pytest.approx(path_max(net, draws[:, k]), abs=1e-9)
    assert r.expected_completion == pytest.approx(float(r.samples.mean()))
    assert r.completion_variance == pytest.approx(float(r.samples.var(ddof=0)))


def test_duration_matrix_slices_are_position_stable():
    net = diamond()
    per_activity = priors_from_baselines([3.0, 4.0, 5.0, 2.0], 0.3)
    full = sample_duration_matrix(net, per_activity, seed=77, row_start=0, row_stop=40)
    part = sample_duration_matrix(net, per_activity, seed=77, row_start=25, row_stop=33)
    assert np.array_equal(part, full[:, 25:33])


def test_workers_do_not_change_results():
    net = random_dag(np.random.default_rng(67), 12)
    per_activity = priors_from_baselines(
        np.random.default_rng(68).integers(1, 9, size=12), 0.4
    )
    cfg = SimulationConfig(replicate_count=10_000, seed=5, target_completion=25.0)
    a = simulate(net, per_activity, cfg, workers=1)
    b = simulate(net, per_activity, cfg, workers=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.critical_counts, b.critical_counts)
    assert a.expected_completion == b.expected_completion
    assert a.completion_variance == b.completion_variance
    assert a.quantiles == b.quantiles


def test_same_seed_reproduces_different_seed_differs():
    net = diamond()
    per_activity = priors_from_baselines([2.0, 3.0, 5.0, 2.0], 0.3)
    cfg = SimulationConfig(replicate_count=500, seed=11, target_completion=10.0)
    a = simulate(net, per_activity, cfg)
    b = simulate(net, per_activity, cfg)
    assert np.array_equal(a.samples, b.samples)
    c = simulate(
        net,
        per_activity,
        SimulationConfig(replicate_count=500, seed=12, target_completion=10.0),
    )
    assert not np.array_equal(a.samples, c.samples)


def test_delay_probability_examples():
    assert delay_probability_from([8.0, 9.0, 11.0, 12.0], 10.0) == 0.5
    assert delay_probability_from([10.0, 10.0, 10.0], 10.0) == 0.0
    assert delay_probability_from([1.0, 2.0, 3.0], 0.0) == 1.0


def test_critical_counts_consistent_and_contain_a_path():
    rng = np.random.default_rng(71)
    net = random_dag(rng, 7)
    per_activity = priors_from_baselines(rng.integers(1, 8, size=7), 0.5)
    cfg = SimulationConfig(replicate_count=200, seed=31, target_completion=15.0)
    r = simulate(net, per_activity, cfg)
    assert np.array_equal(
        r.critical_probability, r.critical_counts / cfg.replicate_count
    )
    draws = sample_duration_matrix(net, per_activity, seed=31, row_start=0, row_stop=200)
    batch = cpm_batch(net, draws)
    assert np.array_equal(r.critical_counts, batch.critical_mask.sum(axis=1))
    assert np.array_equal(r.samples, batch.completion_time)


def test_dummy_endpoints_always_critical_on_parsed_instance():
    inst = parse_sm(read_fixture("j30_fix_a.sm"))
    net, baselines = to_network(inst)
    per_activity = priors_from_baselines(baselines, 0.3)
    cfg = SimulationConfig(replicate_count=300, seed=13, target_completion=50.0)
    r = simulate(net, per_activity, cfg)
    assert r.critical_probability[0] == 1.0
    assert r.critical_probability[-1] == 1.0


def test_quantiles_ordered_and_ci90_matches():
    net = diamond()
    per_activity = priors_from_baselines([2.0, 3.0, 5.0, 2.0], 0.5)
    cfg = SimulationConfig(replicate_count=2000, seed=3, target_completion=9.0)
    r = simulate(net, per_activity, cfg)
    assert tuple(sorted(QUANTILE_LEVELS)) == QUANTILE_LEVELS
    assert r.quantiles[0.05] <= r.quantiles[0.5] <= r.quantiles[0.95]
    assert r.ci90_width == pytest.approx(r.quantiles[0.95] - r.quantiles[0.05])
    levels = np.quantile(r.samples, QUANTILE_LEVELS)
    for level, value in zip(QUANTILE_LEVELS, levels):
        assert r.quantiles[level] == pytest.approx(float(value))


def test_frozen_activities_do_not_perturb_live_draw_alignment():
    # replacing a lognormal activity by a frozen one must not shift the
    # draws of the remaining activities (counter-based per-cell streams)
    net = build_network(3, [(0, 1), (1, 2)])
    live = priors_from_baselines([4.0, 5.0, 6.0], 0.3)
    mixed = [live[0], FrozenDuration(5.0), live[2]]
    a = sample_duration_matrix(net, live, seed=9, row_start=0, row_stop=20)
    b = sample_duration_matrix(net, mixed, seed=9, row_start=0, row_stop=20)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[2], b[2])
    assert np.all(b[1] == 5.0)
    # every live cell (i, k) is the draw at counter k*n + i of the "sim" stream
    key = stream_key(9, "sim")
    for k, i in [(0, 0), (0, 2), (7, 1), (19, 2)]:
        z = normals(key, [k * 3 + i])
        assert a[i, k] == np.exp(live[i].mu + live[i].sigma * z)[0]


def test_input_validation():
    net = diamond()
    per_activity = priors_from_baselines([2.0, 3.0, 5.0], 0.3)
    cfg = SimulationConfig(replicate_count=10, seed=1, target_completion=9.0)
    with pytest.raises(LengthMismatch):
        simulate(net, per_activity, cfg)
    good = priors_from_baselines([2.0, 3.0, 5.0, 2.0], 0.3)
    with pytest.raises(ValueError):
        simulate(net, good, SimulationConfig(replicate_count=0, seed=1, target_completion=9.0))
