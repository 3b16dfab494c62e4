"""Replication harness: scenario grid, ground truth, updating strategies."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import stoched.experiment
from conftest import diamond, read_fixture
from stoched.bayes import ObservationRecord, make_initial_state, map_update
from stoched.durations import is_frozen, priors_from_baselines
from stoched.errors import ConfigError
from stoched.experiment import (
    CSV_HEADER,
    METHODS,
    OBS_NOISE_FRACTION,
    PRIOR_TAU_LOG_SIGMA,
    PRIOR_TAU_MU,
    STRATEGIES,
    UNCERTAINTY_SIGMA,
    ExperimentRow,
    GridConfig,
    GroundTruth,
    completion_histogram,
    csv_lines,
    derive_seeds,
    generate_ground_truth,
    generate_observations,
    histogram_csv,
    jsonl_lines,
    make_scenario,
    median_rmse_by_method,
    observation_batches,
    run_matrix,
    run_method,
)
from stoched.network import compute_cpm
from stoched.psplib import parse_sm, to_network
from stoched.rng import stream_key
from stoched.simulate import ForecastResult


@pytest.fixture(scope="module")
def j30():
    net, baselines = to_network(parse_sm(read_fixture("j30_fix_a.sm")))
    return net, baselines


DIAMOND_BASELINES = np.array([3.0, 4.0, 5.0, 2.0])


# -------------------------------------------------------------- make_scenario


def test_scenario_levels_fill_defaults():
    for level in ("low", "moderate", "high"):
        cfg = make_scenario(level, "none", "static_mc", seed=1)
        assert cfg.sigma_duration == UNCERTAINTY_SIGMA[level]
        assert cfg.sigma_obs_fraction == OBS_NOISE_FRACTION[level]
    assert UNCERTAINTY_SIGMA == {"low": 0.1, "moderate": 0.3, "high": 0.5}
    assert OBS_NOISE_FRACTION == {"low": 0.05, "moderate": 0.10, "high": 0.20}


def test_scenario_explicit_overrides():
    cfg = make_scenario(
        "moderate", "none", "static_mc", 1, sigma_duration=0.42, sigma_obs_fraction=0.01
    )
    assert cfg.sigma_duration == 0.42
    assert cfg.sigma_obs_fraction == 0.01


def test_scenario_validation():
    with pytest.raises(ConfigError):
        make_scenario("extreme", "none", "static_mc", 1)
    with pytest.raises(ConfigError):
        make_scenario("low", "hourly", "static_mc", 1)
    with pytest.raises(ConfigError):
        make_scenario("low", "none", "oracle", 1)
    with pytest.raises(ConfigError):
        make_scenario("low", "none", "static_mc", 1, replicate_count=0)
    with pytest.raises(ConfigError):
        make_scenario("low", "none", "static_mc", 1, target_rule=0.0)
    with pytest.raises(ConfigError):
        make_scenario("low", "none", "static_mc", 1, target_rule=float("nan"))


# -------------------------------------------------------------- ground truth


def test_ground_truth_deterministic_per_seed(j30):
    net, baselines = j30
    cfg = make_scenario("moderate", "none", "static_mc", seed=4)
    a = generate_ground_truth(net, baselines, cfg)
    b = generate_ground_truth(net, baselines, cfg)
    assert np.array_equal(a.true_durations, b.true_durations)
    assert a.t_true == b.t_true
    other = generate_ground_truth(
        net, baselines, make_scenario("moderate", "none", "static_mc", seed=5)
    )
    assert not np.array_equal(a.true_durations, other.true_durations)


def test_ground_truth_dummies_stay_zero(j30):
    net, baselines = j30
    cfg = make_scenario("high", "none", "static_mc", seed=2)
    truth = generate_ground_truth(net, baselines, cfg)
    assert truth.true_durations[0] == 0.0
    assert truth.true_durations[-1] == 0.0
    assert np.all(truth.true_durations[1:-1] > 0)


def test_ground_truth_degenerates_to_baseline_at_zero_sigma(j30):
    net, baselines = j30
    cfg = make_scenario("moderate", "none", "static_mc", seed=3, sigma_duration=0.0)
    truth = generate_ground_truth(net, baselines, cfg)
    det = compute_cpm(net, baselines).completion_time
    real = baselines > 0
    assert np.allclose(truth.true_durations[real], baselines[real], rtol=1e-4)
    assert truth.t_true == pytest.approx(det, rel=1e-4)


def test_true_completion_mostly_exceeds_deterministic_plan(j30):
    # many parallel near-equal paths: the realized maximum concentrates
    # above the single-path deterministic value
    net, baselines = j30
    det = compute_cpm(net, baselines).completion_time
    above = 0
    for seed in range(100):
        cfg = make_scenario("moderate", "none", "static_mc", seed=seed)
        above += generate_ground_truth(net, baselines, cfg).t_true > det
    assert above > 50


# ------------------------------------------------------------- observations


def test_observations_cover_each_real_activity_once(j30):
    net, baselines = j30
    cfg = make_scenario("moderate", "continuous", "full_framework", seed=6)
    truth = generate_ground_truth(net, baselines, cfg)
    records = generate_observations(net, truth, baselines, cfg)
    assert len(records) == int(np.count_nonzero(baselines > 0))
    assert sorted({r.activity for r in records}) == sorted(
        np.flatnonzero(baselines > 0).tolist()
    )
    for r in records:
        assert r.noise_sd == pytest.approx(
            cfg.sigma_obs_fraction * baselines[r.activity]
        )


def test_observations_arrive_in_earliest_finish_order(j30):
    net, baselines = j30
    cfg = make_scenario("high", "continuous", "full_framework", seed=8)
    truth = generate_ground_truth(net, baselines, cfg)
    records = generate_observations(net, truth, baselines, cfg)
    ef = compute_cpm(net, truth.true_durations).earliest_finish
    keys = [(ef[r.activity], r.activity) for r in records]
    assert keys == sorted(keys)


def test_observation_order_on_forced_truth():
    net = diamond()
    cfg = make_scenario("moderate", "continuous", "full_framework", seed=1)
    slow_first = GroundTruth(
        true_durations=np.array([1.0, 5.0, 3.0, 1.0]), t_true=7.0
    )
    order = [r.activity for r in generate_observations(net, slow_first, DIAMOND_BASELINES, cfg)]
    assert order == [0, 2, 1, 3]
    tied = GroundTruth(true_durations=np.array([1.0, 3.0, 3.0, 1.0]), t_true=5.0)
    order = [r.activity for r in generate_observations(net, tied, DIAMOND_BASELINES, cfg)]
    assert order == [0, 1, 2, 3]  # equal finishes fall back to index order


def test_observations_nearly_noiseless_limit(j30):
    net, baselines = j30
    cfg = make_scenario(
        "moderate", "continuous", "full_framework", seed=9, sigma_obs_fraction=1e-12
    )
    truth = generate_ground_truth(net, baselines, cfg)
    for r in generate_observations(net, truth, baselines, cfg):
        assert r.observed_duration == pytest.approx(
            float(truth.true_durations[r.activity]), abs=1e-6
        )


def test_observation_noise_is_seed_stable(j30):
    net, baselines = j30
    cfg = make_scenario("moderate", "continuous", "full_framework", seed=10)
    truth = generate_ground_truth(net, baselines, cfg)
    a = generate_observations(net, truth, baselines, cfg)
    b = generate_observations(net, truth, baselines, cfg)
    assert a == b


# ------------------------------------------------------------------ batching


def test_observation_batches_by_strategy():
    records = [ObservationRecord(i, 5.0, 0.5) for i in range(10)]
    assert observation_batches(records, "none") == []
    continuous = observation_batches(records, "continuous")
    assert [len(b) for b in continuous] == [1] * 10
    assert [b[0].activity for b in continuous] == list(range(10))
    periodic = observation_batches(records, "periodic")
    assert [len(b) for b in periodic] == [3, 3, 2, 2]
    flat = [r.activity for b in periodic for r in b]
    assert flat == list(range(10))


def test_observation_batches_fewer_records_than_cycles():
    records = [ObservationRecord(i, 5.0, 0.5) for i in range(3)]
    periodic = observation_batches(records, "periodic")
    assert [len(b) for b in periodic] == [1, 1, 1]
    with pytest.raises(ConfigError):
        observation_batches(records, "weekly")


# ---------------------------------------------------------------- run_method


def test_deterministic_method_scores_plan_makespan():
    net = diamond()
    cfg = make_scenario("moderate", "none", "deterministic_cpm", seed=3)
    row, forecast = run_method(net, DIAMOND_BASELINES, cfg, instance_name="d")
    det = compute_cpm(net, DIAMOND_BASELINES).completion_time
    truth = generate_ground_truth(net, DIAMOND_BASELINES, cfg)
    assert forecast == det
    assert row.expected_completion == det
    assert row.rmse == pytest.approx(abs(det - truth.t_true))
    assert row.mae == row.rmse
    assert row.completion_variance == 0.0
    assert row.ci90_width == 0.0
    assert row.delay_probability in (0.0, 1.0)
    assert row.wall_time_ms == 0.0


def test_static_equals_full_framework_without_updates():
    net = diamond()
    common = dict(seed=5, replicate_count=400)
    static_row, static_fc = run_method(
        net,
        DIAMOND_BASELINES,
        make_scenario("moderate", "none", "static_mc", **common),
        instance_name="d",
    )
    ff_row, ff_fc = run_method(
        net,
        DIAMOND_BASELINES,
        make_scenario("moderate", "none", "full_framework", **common),
        instance_name="d",
    )
    assert isinstance(static_fc, ForecastResult) and isinstance(ff_fc, ForecastResult)
    assert np.array_equal(static_fc.samples, ff_fc.samples)
    assert static_row.rmse == ff_row.rmse
    assert static_row.expected_completion == ff_row.expected_completion


def test_bayes_without_updates_degenerates_to_plan():
    # mean-preserving priors make the no-update posterior-mean schedule
    # reproduce the deterministic baseline exactly
    net = diamond()
    cfg = make_scenario("moderate", "none", "bayes_no_propagation", seed=5)
    row, forecast = run_method(net, DIAMOND_BASELINES, cfg, instance_name="d")
    assert forecast == pytest.approx(
        compute_cpm(net, DIAMOND_BASELINES).completion_time, rel=1e-12
    )


def test_updates_shrink_log_errors_when_observations_are_nearly_exact(j30):
    net, baselines = j30
    factors = []
    for seed in range(3):
        cfg = make_scenario(
            "moderate",
            "continuous",
            "full_framework",
            seed=seed,
            replicate_count=1,
            sigma_obs_fraction=1e-6,
        )
        truth = generate_ground_truth(net, baselines, cfg)
        records = generate_observations(net, truth, baselines, cfg)
        priors = priors_from_baselines(baselines, cfg.sigma_duration)
        states = {
            i: make_initial_state(
                priors[i], tau_mu=PRIOR_TAU_MU, tau_log_sigma=PRIOR_TAU_LOG_SIGMA
            )
            for i in range(len(priors))
            if not is_frozen(priors[i])
        }
        for batch in observation_batches(records, "continuous"):
            for r in batch:
                states[r.activity] = map_update(states[r.activity], [r])
        prior_sq, post_sq = [], []
        for i, model in enumerate(priors):
            if is_frozen(model):
                continue
            log_true = math.log(truth.true_durations[i])
            prior_sq.append((model.mu - log_true) ** 2)
            post_sq.append((states[i].params.mu - log_true) ** 2)
        factors.append(math.sqrt(np.mean(post_sq) / np.mean(prior_sq)))
    assert max(factors) <= 0.6


def test_full_framework_strategies_update_through_different_cycles():
    net = diamond()
    rows = {}
    for strategy in STRATEGIES:
        cfg = make_scenario("moderate", strategy, "full_framework", seed=17, replicate_count=300)
        rows[strategy], _ = run_method(net, DIAMOND_BASELINES, cfg, instance_name="d")
    # updated forecasts differ from the never-updated one
    assert rows["continuous"].expected_completion != rows["none"].expected_completion
    assert rows["periodic"].expected_completion != rows["none"].expected_completion


# ---------------------------------------------------------------- run_matrix


def test_run_matrix_row_order_and_callback():
    net = diamond()
    grid = GridConfig(
        uncertainties=("low",),
        strategies=("none", "continuous"),
        methods=("deterministic_cpm", "full_framework"),
        replicate_count=60,
    )
    seen = []
    rows = run_matrix(
        [("d", net, DIAMOND_BASELINES)],
        grid,
        seeds=[1, 2],
        on_result=lambda row, forecast: seen.append((row, forecast)),
    )
    assert len(rows) == 8
    assert [(r.strategy, r.method, r.seed) for r in rows] == [
        ("none", "deterministic_cpm", 1),
        ("none", "deterministic_cpm", 2),
        ("none", "full_framework", 1),
        ("none", "full_framework", 2),
        ("continuous", "deterministic_cpm", 1),
        ("continuous", "deterministic_cpm", 2),
        ("continuous", "full_framework", 1),
        ("continuous", "full_framework", 2),
    ]
    assert [r for r, _ in seen] == rows
    for row, forecast in seen:
        if row.method == "deterministic_cpm":
            assert isinstance(forecast, float)
        else:
            assert isinstance(forecast, ForecastResult)
    assert all(r.wall_time_ms == 0.0 for r in rows)
    assert all(r.instance_name == "d" for r in rows)


def _count_calls(monkeypatch, names=("simulate", "map_update")) -> dict:
    """Wrap the experiment module's simulate and map_update with counters."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(stoched.experiment, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stoched.experiment, name, counted)
    return counts


def _same_forecast(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return type(a) is type(b) and a == b
    return (
        a.expected_completion == b.expected_completion
        and a.completion_variance == b.completion_variance
        and a.delay_probability == b.delay_probability
        and a.quantiles == b.quantiles
        and a.ci90_width == b.ci90_width
        and np.array_equal(a.critical_probability, b.critical_probability)
        and np.array_equal(a.critical_counts, b.critical_counts)
        and np.array_equal(a.samples, b.samples)
    )


SHARED_GRID = GridConfig(
    uncertainties=("low", "high"),
    strategies=STRATEGIES,
    methods=METHODS,
    replicate_count=200,
)
SHARED_SEEDS = (21, 22)


@pytest.fixture(scope="module")
def shared_matrix(j30):
    """run_matrix on j30 with simulate/map_update calls counted per
    (uncertainty, seed): the calls made since the previous cell belong
    to the cell that on_result reports next."""
    net, baselines = j30
    cells = []
    per_seed: dict[tuple[str, int], dict] = {}
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_calls(mp)
        seen = dict(counts)

        def on_result(row, forecast):
            cells.append((row, forecast))
            tally = per_seed.setdefault(
                (row.uncertainty, row.seed), dict.fromkeys(counts, 0)
            )
            for name in counts:
                tally[name] += counts[name] - seen[name]
                seen[name] = counts[name]

        rows = run_matrix(
            [("j30", net, baselines)], SHARED_GRID, SHARED_SEEDS, on_result=on_result
        )
    return rows, cells, per_seed


def test_run_matrix_equals_independent_cells(j30, shared_matrix):
    net, baselines = j30
    rows, cells, _ = shared_matrix
    assert len(rows) == 2 * 3 * 4 * 2
    assert [row for row, _ in cells] == rows
    for row, forecast in cells:
        cfg = make_scenario(
            row.uncertainty,
            row.strategy,
            row.method,
            row.seed,
            replicate_count=SHARED_GRID.replicate_count,
        )
        alone_row, alone_forecast = run_method(net, baselines, cfg, instance_name="j30")
        assert alone_row == row
        assert _same_forecast(alone_forecast, forecast), (row.method, row.strategy)
        if isinstance(forecast, ForecastResult):
            # shared between cells, so no callback may write into it
            assert not forecast.samples.flags.writeable
    assert csv_lines(rows) == csv_lines([row for row, _ in cells])


def test_run_matrix_computes_each_seed_once(j30, shared_matrix):
    _, baselines = j30
    _, _, per_seed = shared_matrix
    observed = int(np.count_nonzero(baselines > 0))
    assert sorted(per_seed) == [
        (u, s) for u in sorted(SHARED_GRID.uncertainties) for s in SHARED_SEEDS
    ]
    for tally in per_seed.values():
        # one prior forecast (static_mc, full_framework/none) and one
        # posterior forecast (periodic and continuous agree)
        assert tally["simulate"] == 2
        assert tally["map_update"] == observed


def test_full_framework_simulates_only_the_final_posterior(monkeypatch):
    counts = _count_calls(monkeypatch)
    cfg = make_scenario("moderate", "continuous", "full_framework", seed=4, replicate_count=50)
    run_method(diamond(), DIAMOND_BASELINES, cfg, instance_name="d")
    assert counts == {"simulate": 1, "map_update": len(DIAMOND_BASELINES)}


def test_run_matrix_requires_inputs():
    grid = GridConfig()
    with pytest.raises(ConfigError):
        run_matrix([], grid, seeds=[1])
    with pytest.raises(ConfigError):
        run_matrix([("d", diamond(), DIAMOND_BASELINES)], grid, seeds=[])


def test_derive_seeds_deterministic_and_distinct():
    seeds = derive_seeds(7, 10)
    assert seeds == derive_seeds(7, 10)
    assert len(set(seeds)) == 10
    assert seeds != derive_seeds(8, 10)
    assert seeds[3] == stream_key(7, "seed", 3)


# ------------------------------------------------------------- serialization


def _toy_rows():
    return [
        ExperimentRow("inst", m, "none", "low", s, 1.5 + s, 1.0, 20.25, 4.0, 0.25, 6.5, 0.0)
        for m in ("deterministic_cpm", "static_mc")
        for s in (1, 2, 3)
    ]


def test_csv_lines_round_trip():
    text = csv_lines(_toy_rows())
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert (
        CSV_HEADER
        == "instance,method,strategy,uncertainty,seed,rmse,mae,e_t,var_t,p_delay,ci90,wall_ms"
    )
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "inst"
    assert first[4] == "1"
    assert float(first[5]) == 2.5  # repr round-trips exactly
    assert text.endswith("\n")


def test_jsonl_lines_parse_and_sorted_keys():
    text = jsonl_lines(_toy_rows())
    lines = text.strip().split("\n")
    assert len(lines) == 6
    for line in lines:
        payload = json.loads(line)
        assert sorted(payload) == list(payload)
        assert set(payload) == {
            "instance",
            "method",
            "strategy",
            "uncertainty",
            "seed",
            "rmse",
            "mae",
            "e_t",
            "var_t",
            "p_delay",
            "ci90",
            "wall_ms",
        }


def test_completion_histogram_partitions_samples():
    rng = np.random.default_rng(83)
    samples = rng.lognormal(3.0, 0.25, size=5000)
    bins = completion_histogram(samples)
    assert 1 <= len(bins) <= 200
    assert sum(count for _, _, count in bins) == 5000
    lefts = [b[0] for b in bins]
    rights = [b[1] for b in bins]
    assert lefts[0] == pytest.approx(float(samples.min()))
    assert rights[-1] == pytest.approx(float(samples.max()))
    for i in range(len(bins) - 1):
        assert rights[i] == pytest.approx(lefts[i + 1])


def test_completion_histogram_degenerate_sample():
    assert completion_histogram([9.0, 9.0, 9.0]) == [(9.0, 9.0, 3)]


def test_histogram_csv_layout():
    text = histogram_csv([1.0, 2.0, 2.5, 4.0])
    lines = text.strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 4


def test_median_rmse_by_method():
    rows = _toy_rows()
    medians = median_rmse_by_method(rows)
    assert medians == {"deterministic_cpm": 3.5, "static_mc": 3.5}
    assert list(medians) == sorted(medians)


def test_method_and_strategy_vocabulary():
    assert METHODS == (
        "deterministic_cpm",
        "static_mc",
        "bayes_no_propagation",
        "full_framework",
    )
    assert STRATEGIES == ("none", "periodic", "continuous")
