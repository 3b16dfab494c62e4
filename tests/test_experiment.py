"""Replication harness: scenario grid, ground truth, updating strategies."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import stoched.experiment
import stoched.simulate
from conftest import diamond, read_fixture
from stoched.bayes import ObservationRecord, PosteriorState, map_update
from stoched.durations import LognormalParams, is_frozen, priors_from_baselines
from stoched.errors import ConfigError, NonFiniteResult, OptimizationFailed
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
    Scenario,
    completion_histogram,
    csv_lines,
    derive_seeds,
    generate_ground_truth,
    generate_observations,
    histogram_csv,
    jsonl_lines,
    make_scenario,
    median_rmse_by_method,
    posterior_models,
    run_matrix,
    run_method,
)
from stoched.network import compute_cpm
from stoched.psplib import parse_sm, to_network
from stoched.rng import normals, stream_key
from stoched.simulate import ForecastResult


@pytest.fixture(scope="module")
def j30():
    net, baselines = to_network(parse_sm(read_fixture("j30_fix_a.sm")))
    return net, baselines


DIAMOND_BASELINES = np.array([3.0, 4.0, 5.0, 2.0])


# -------------------------------------------------------------- make_scenario


def test_scenario_levels_fill_defaults(j30):
    net, baselines = j30
    for level in ("low", "moderate", "high"):
        scenario = make_scenario(
            "j30", net, baselines, level, seed=1, replicate_count=10_000, target_rule=1.0
        )
        assert scenario.priors == priors_from_baselines(baselines, UNCERTAINTY_SIGMA[level])
        for r in scenario.observations:
            assert r.noise_sd == OBS_NOISE_FRACTION[level] * baselines[r.activity]
    assert UNCERTAINTY_SIGMA == {"low": 0.1, "moderate": 0.3, "high": 0.5}
    assert OBS_NOISE_FRACTION == {"low": 0.05, "moderate": 0.10, "high": 0.20}


def test_scenario_holds_target_truth_and_observations(j30):
    net, baselines = j30
    scenario = make_scenario(
        "j30", net, baselines, "high", seed=7, replicate_count=300, target_rule=1.25
    )
    assert isinstance(scenario, Scenario)
    assert np.array_equal(scenario.baselines, baselines)
    assert scenario.sim_cfg.replicate_count == 300
    assert scenario.sim_cfg.seed == stream_key(7, "mc")
    assert scenario.sim_cfg.target_completion == 1.25 * (
        compute_cpm(net, baselines).completion_time
    )
    truth = generate_ground_truth(net, scenario.priors, 7)
    assert np.array_equal(scenario.truth.true_durations, truth.true_durations)
    assert scenario.observations == generate_observations(
        net, truth, baselines, OBS_NOISE_FRACTION["high"], 7
    )


def _grid(**kwargs) -> GridConfig:
    """A one-instance, one-seed grid with the given fields replaced."""
    return GridConfig(
        **{"instances": (("d", diamond(), DIAMOND_BASELINES),), "seeds": (1,), **kwargs}
    )


def test_grid_config_validation():
    _grid()
    bad = [
        dict(uncertainties=("extreme",)),
        dict(strategies=("hourly",)),
        dict(methods=("oracle",)),
        dict(uncertainties=()),
        dict(strategies=()),
        dict(methods=()),
        dict(replicate_count=0),
        dict(target_rule=0.0),
        dict(target_rule=float("nan")),
        dict(target_rule=float("inf")),
        dict(seeds=(-1,)),  # stream_key would take it as 2**64 - 1
        dict(seeds=(0, 2**64)),  # equal modulo 2**64
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            _grid(**kwargs)
    repeated = [
        dict(uncertainties=("low", "high", "low")),
        dict(strategies=("none", "none")),
        dict(methods=("static_mc", "full_framework", "static_mc")),
    ]
    for kwargs in repeated:
        value = next(iter(kwargs.values()))[0]
        with pytest.raises(ConfigError, match=f"'{value}' is given more than once"):
            _grid(**kwargs)


# -------------------------------------------------------------- ground truth


def _priors(baselines, level="moderate"):
    return priors_from_baselines(baselines, UNCERTAINTY_SIGMA[level])


def test_ground_truth_deterministic_per_seed(j30):
    net, baselines = j30
    a = generate_ground_truth(net, _priors(baselines), 4)
    b = generate_ground_truth(net, _priors(baselines), 4)
    assert np.array_equal(a.true_durations, b.true_durations)
    assert a.t_true == b.t_true
    other = generate_ground_truth(net, _priors(baselines), 5)
    assert not np.array_equal(a.true_durations, other.true_durations)


def test_overflowing_ground_truth_draw_is_non_finite_result():
    # math.exp raises OverflowError past 709.78; the error names the activity
    net = diamond()
    priors = _priors([2.0, 3.0, 5.0, 2.0])
    priors[2] = LognormalParams(mu=1000.0, sigma=0.3)
    with pytest.raises(NonFiniteResult, match="activity 2"):
        generate_ground_truth(net, priors, 1)


def test_ground_truth_dummies_stay_zero(j30):
    net, baselines = j30
    truth = generate_ground_truth(net, _priors(baselines, "high"), 2)
    assert truth.true_durations[0] == 0.0
    assert truth.true_durations[-1] == 0.0
    assert np.all(truth.true_durations[1:-1] > 0)


def test_ground_truth_degenerates_to_baseline_at_zero_sigma(j30):
    net, baselines = j30
    truth = generate_ground_truth(net, priors_from_baselines(baselines, 0.0), 3)
    det = compute_cpm(net, baselines).completion_time
    real = baselines > 0
    assert np.allclose(truth.true_durations[real], baselines[real], rtol=1e-4)
    assert truth.t_true == pytest.approx(det, rel=1e-4)


def test_true_completion_mostly_exceeds_deterministic_plan(j30):
    # many parallel near-equal paths: the realized maximum concentrates
    # above the single-path deterministic value
    net, baselines = j30
    det = compute_cpm(net, baselines).completion_time
    priors = _priors(baselines)
    above = sum(generate_ground_truth(net, priors, seed).t_true > det for seed in range(100))
    assert above > 50


# ------------------------------------------------------------- observations


def _observations(net, baselines, level, seed, noise_fraction=None):
    truth = generate_ground_truth(net, _priors(baselines, level), seed)
    if noise_fraction is None:
        noise_fraction = OBS_NOISE_FRACTION[level]
    return truth, generate_observations(net, truth, baselines, noise_fraction, seed)


def test_observations_cover_each_real_activity_once(j30):
    net, baselines = j30
    _, records = _observations(net, baselines, "moderate", 6)
    assert len(records) == int(np.count_nonzero(baselines > 0))
    assert sorted({r.activity for r in records}) == sorted(
        np.flatnonzero(baselines > 0).tolist()
    )
    for r in records:
        assert r.noise_sd == pytest.approx(
            OBS_NOISE_FRACTION["moderate"] * baselines[r.activity]
        )


def test_observations_arrive_in_earliest_finish_order(j30):
    net, baselines = j30
    truth, records = _observations(net, baselines, "high", 8)
    ef = compute_cpm(net, truth.true_durations).earliest_finish
    assert np.array_equal(truth.earliest_finish, ef)
    keys = [(ef[r.activity], r.activity) for r in records]
    assert keys == sorted(keys)


def test_observation_order_on_forced_truth():
    net = diamond()
    slow_first = GroundTruth(
        true_durations=np.array([1.0, 5.0, 3.0, 1.0]),
        t_true=7.0,
        earliest_finish=np.array([1.0, 6.0, 4.0, 7.0]),
    )
    order = [r.activity for r in generate_observations(net, slow_first, DIAMOND_BASELINES, 0.1, 1)]
    assert order == [0, 2, 1, 3]
    tied = GroundTruth(
        true_durations=np.array([1.0, 3.0, 3.0, 1.0]),
        t_true=5.0,
        earliest_finish=np.array([1.0, 4.0, 4.0, 5.0]),
    )
    order = [r.activity for r in generate_observations(net, tied, DIAMOND_BASELINES, 0.1, 1)]
    assert order == [0, 1, 2, 3]  # equal finishes fall back to index order


def test_observations_nearly_noiseless_limit(j30):
    net, baselines = j30
    truth, records = _observations(net, baselines, "moderate", 9, noise_fraction=1e-12)
    for r in records:
        assert r.observed_duration == pytest.approx(
            float(truth.true_durations[r.activity]), abs=1e-6
        )


def test_observation_noise_is_seed_stable(j30):
    net, baselines = j30
    _, a = _observations(net, baselines, "moderate", 10)
    _, b = _observations(net, baselines, "moderate", 10)
    assert a == b


@pytest.mark.parametrize("seed", [0, 10, 2**63 - 1, 2**63, 2**64 - 1])
def test_observations_are_the_per_activity_draws_bit_for_bit(j30, seed):
    # One noise draw for all activities gives each the variate it had from
    # its own stream, counter 0 of stream_key(seed, "obs", i).
    net, baselines = j30
    truth, records = _observations(net, baselines, "moderate", seed)
    observable = [i for i in range(net.activity_count) if baselines[i] > 0]
    expected = []
    for i in sorted(observable, key=lambda i: (truth.earliest_finish[i], i)):
        noise_sd = OBS_NOISE_FRACTION["moderate"] * float(baselines[i])
        eps = float(normals(stream_key(seed, "obs", i), [0])[0])
        observed = float(truth.true_durations[i]) + noise_sd * eps
        expected.append(ObservationRecord(i, observed, noise_sd))
    assert [(r.activity, r.observed_duration.hex(), r.noise_sd.hex()) for r in records] == [
        (r.activity, r.observed_duration.hex(), r.noise_sd.hex()) for r in expected
    ]


# ---------------------------------------------------------------- run_method


def _diamond_scenario(seed, replicate_count=10_000):
    return make_scenario(
        "d", diamond(), DIAMOND_BASELINES, "moderate", seed, replicate_count, 1.0
    )


def test_deterministic_method_scores_plan_makespan():
    scenario = _diamond_scenario(3)
    row, forecast = run_method(scenario, "none", "deterministic_cpm")
    det = compute_cpm(diamond(), DIAMOND_BASELINES).completion_time
    truth = generate_ground_truth(diamond(), scenario.priors, 3)
    assert forecast.samples.shape == (1,)
    assert forecast.expected_completion == det
    assert row.expected_completion == det
    assert row.rmse == abs(det - truth.t_true)
    assert row.mae == row.rmse
    assert row.completion_variance == 0.0
    assert row.ci90_width == 0.0
    assert row.delay_probability in (0.0, 1.0)


def test_static_equals_full_framework_without_updates():
    static_row, static_fc = run_method(
        _diamond_scenario(5, 400), "none", "static_mc"
    )
    ff_row, ff_fc = run_method(_diamond_scenario(5, 400), "none", "full_framework")
    assert isinstance(static_fc, ForecastResult) and isinstance(ff_fc, ForecastResult)
    assert np.array_equal(static_fc.samples, ff_fc.samples)
    assert static_row.rmse == ff_row.rmse
    assert static_row.expected_completion == ff_row.expected_completion


def test_bayes_without_updates_degenerates_to_plan():
    # mean-preserving priors make the no-update posterior-mean schedule
    # reproduce the deterministic baseline exactly
    _, forecast = run_method(_diamond_scenario(5), "none", "bayes_no_propagation")
    assert forecast.samples.shape == (1,)
    assert forecast.expected_completion == pytest.approx(
        compute_cpm(diamond(), DIAMOND_BASELINES).completion_time, rel=1e-12
    )


@pytest.mark.parametrize("method", METHODS)
def test_run_method_rejects_unknown_strategy(method):
    # checked for every method, not only those whose forecast it changes
    with pytest.raises(ConfigError, match="weekly"):
        run_method(_diamond_scenario(3, 50), "weekly", method)


def test_periodic_and_continuous_rows_are_equal(j30):
    # Known limitation: both strategies deliver every observation before
    # the only scored forecast, so their rows differ only in the strategy.
    # ROADMAP items 3 and 9 break this on purpose, by scoring forecasts at
    # report times mid-project. Each strategy runs on its own scenario, so
    # the equality does not come from a posterior or forecast they share.
    net, baselines = j30
    for method in METHODS:
        periodic, continuous = (
            run_method(
                make_scenario("j30", net, baselines, "moderate", 11, 200, 1.0),
                strategy,
                method,
            )[0]
            for strategy in ("periodic", "continuous")
        )
        assert replace(periodic, strategy="continuous") == continuous, method


def test_updates_shrink_log_errors_when_observations_are_nearly_exact(j30):
    net, baselines = j30
    priors = _priors(baselines)
    factors = []
    for seed in range(3):
        truth, records = _observations(net, baselines, "moderate", seed, noise_fraction=1e-6)
        posterior = posterior_models(priors, records, PRIOR_TAU_MU, PRIOR_TAU_LOG_SIGMA)
        prior_sq, post_sq = [], []
        for i, model in enumerate(priors):
            if is_frozen(model):
                continue
            log_true = math.log(truth.true_durations[i])
            prior_sq.append((model.mu - log_true) ** 2)
            post_sq.append((posterior[i].mu - log_true) ** 2)
        factors.append(math.sqrt(np.mean(post_sq) / np.mean(prior_sq)))
    assert max(factors) <= 0.6


# ----------------------------------------------------------- posterior_models

# Diamond priors: activities 0 and 3 are frozen dummies, 1 and 2 stochastic.
DIAMOND_PRIORS = _priors(np.array([0.0, 4.0, 5.0, 0.0]))


def test_posterior_models_makes_one_update_per_activity_in_batch_order():
    batch = [
        ObservationRecord(2, 6.0, 0.5),
        ObservationRecord(1, 3.5, 0.4),
        ObservationRecord(2, 5.5, 0.5),
    ]
    posterior = posterior_models(DIAMOND_PRIORS, batch, 0.4, 0.7)
    for activity in (1, 2):
        state = PosteriorState(DIAMOND_PRIORS[activity], tau_mu=0.4, tau_log_sigma=0.7)
        own = [r for r in batch if r.activity == activity]
        assert posterior[activity] == map_update(state, own).params
    assert posterior[0] is DIAMOND_PRIORS[0] and posterior[3] is DIAMOND_PRIORS[3]
    # an activity's records combine into one, so their order does not matter
    assert posterior_models(DIAMOND_PRIORS, batch[::-1], 0.4, 0.7) == posterior
    unobserved = posterior_models(DIAMOND_PRIORS, batch[:1], 0.4, 0.7)
    assert unobserved[1] is DIAMOND_PRIORS[1]


def test_full_framework_strategies_update_through_different_cycles():
    scenario = _diamond_scenario(17, 300)
    rows = {
        strategy: run_method(scenario, strategy, "full_framework")[0]
        for strategy in STRATEGIES
    }
    # updated forecasts differ from the never-updated one
    assert rows["continuous"].expected_completion != rows["none"].expected_completion
    assert rows["periodic"].expected_completion != rows["none"].expected_completion


# ---------------------------------------------------------------- run_matrix


def test_run_matrix_row_order_and_callback():
    net = diamond()
    grid = GridConfig(
        instances=(("d", net, DIAMOND_BASELINES),),
        seeds=(1, 2),
        uncertainties=("low",),
        strategies=("none", "continuous"),
        methods=("deterministic_cpm", "full_framework"),
        replicate_count=60,
    )
    seen = []
    rows = run_matrix(
        grid, on_result=lambda row, forecast: seen.append((row, forecast))
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
        assert isinstance(forecast, ForecastResult)
        if row.method == "deterministic_cpm":
            assert forecast.samples.shape == (1,)
        else:
            assert forecast.samples.shape == (60,)
    assert all(r.instance_name == "d" for r in rows)


def _count_calls(
    monkeypatch,
    names=(
        "simulate_many",
        "map_updates",
        "generate_ground_truth",
        "generate_observations",
        "compute_cpm",
    ),
) -> dict:
    """Wrap the experiment module's functions of these names with counters:
    calls, except that map_updates counts the (state, records) pairs it
    solves."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(stoched.experiment, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += len(args[0]) if _name == "map_updates" else 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(stoched.experiment, name, counted)
    return counts


def _same_forecast(a, b) -> bool:
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


SHARED_SEEDS = (21, 22)


@pytest.fixture(scope="module")
def shared_grid(j30):
    net, baselines = j30
    return GridConfig(
        instances=(("j30", net, baselines),),
        seeds=SHARED_SEEDS,
        uncertainties=("low", "high"),
        strategies=STRATEGIES,
        methods=METHODS,
        replicate_count=200,
    )


@pytest.fixture(scope="module")
def shared_matrix(shared_grid):
    """run_matrix on j30 with calls counted per (uncertainty, seed).

    A scenario's truth and observations are built, and its forecasts
    computed, before its first cell; every other call belongs to the cell
    that on_result reports next. simulate_many calls are also counted by
    replicate count, with the model sets they forecast."""
    cells = []
    per_seed: dict[tuple[str, int], dict] = {}
    with pytest.MonkeyPatch.context() as mp:
        counts = _count_calls(mp)
        counts.update(sampled_calls=0, sampled_sets=0, point_calls=0, point_sets=0)
        simulate_many = stoched.experiment.simulate_many
        scenario_forecasts = stoched.experiment._scenario_forecasts

        def count_sets(net, model_sets, cfg, workers=1, **kwargs):
            kind = "point" if cfg.replicate_count == 1 else "sampled"
            counts[f"{kind}_calls"] += 1
            counts[f"{kind}_sets"] += len(model_sets)
            return simulate_many(net, model_sets, cfg, workers, **kwargs)

        mp.setattr(stoched.experiment, "simulate_many", count_sets)
        seen = dict(counts)

        def charge(key):
            tally = per_seed.setdefault(key, dict.fromkeys(counts, 0))
            for name in counts:
                tally[name] += counts[name] - seen[name]
                seen[name] = counts[name]

        def on_result(row, forecast):
            cells.append((row, forecast))
            charge((row.uncertainty, row.seed))

        def counted_scenario(*args, **kwargs):
            scenario = make_scenario(*args, **kwargs)
            charge((scenario.uncertainty, scenario.seed))
            return scenario

        mp.setattr(stoched.experiment, "make_scenario", counted_scenario)

        def counted_forecasts(scenario, *args):
            forecasts = scenario_forecasts(scenario, *args)
            charge((scenario.uncertainty, scenario.seed))
            return forecasts

        mp.setattr(stoched.experiment, "_scenario_forecasts", counted_forecasts)

        rows = run_matrix(shared_grid, on_result=on_result)
    return rows, cells, per_seed


def test_run_matrix_equals_independent_cells(j30, shared_grid, shared_matrix):
    net, baselines = j30
    rows, cells, _ = shared_matrix
    assert len(rows) == 2 * 3 * 4 * 2
    assert [row for row, _ in cells] == rows
    for row, forecast in cells:
        scenario = make_scenario(
            "j30",
            net,
            baselines,
            row.uncertainty,
            row.seed,
            replicate_count=shared_grid.replicate_count,
            target_rule=shared_grid.target_rule,
        )
        alone_row, alone_forecast = run_method(scenario, row.strategy, row.method)
        assert alone_row == row
        assert _same_forecast(alone_forecast, forecast), (row.method, row.strategy)
        # shared between cells, so no callback may write into it
        assert not forecast.samples.flags.writeable
    assert csv_lines(rows) == csv_lines([row for row, _ in cells])


def test_run_matrix_computes_each_seed_once(j30, shared_grid, shared_matrix):
    _, baselines = j30
    _, _, per_seed = shared_matrix
    observed = int(np.count_nonzero(baselines > 0))
    assert sorted(per_seed) == [
        (u, s) for u in sorted(shared_grid.uncertainties) for s in SHARED_SEEDS
    ]
    for tally in per_seed.values():
        # one simulate_many call per replicate count: one draw pass for
        # the prior forecast (static_mc, full_framework/none) and the
        # posterior forecast (periodic and continuous agree), and one
        # call for the one-replicate point forecasts: the baselines, the
        # prior means (15 of j30's differ from their baseline in the last
        # bit) and the posterior means
        assert tally["simulate_many"] == 2
        assert (tally["sampled_calls"], tally["sampled_sets"]) == (1, 2)
        assert (tally["point_calls"], tally["point_sets"]) == (1, 3)
        assert tally["map_updates"] == observed
        # one realization and one set of observations for all 12 cells
        assert tally["generate_ground_truth"] == 1
        assert tally["generate_observations"] == 1
        # CPM on the baselines (the delay target) and on the truth; point
        # forecasts run through simulate_many
        assert tally["compute_cpm"] == 2


def test_full_framework_simulates_only_the_final_posterior(monkeypatch):
    counts = _count_calls(monkeypatch, names=("simulate_many", "map_updates"))
    run_method(_diamond_scenario(4, 50), "continuous", "full_framework")
    assert counts == {"simulate_many": 1, "map_updates": len(DIAMOND_BASELINES)}


def test_failing_grid_raises_the_first_failing_cells_error(j30, monkeypatch):
    # Seed 5's posterior fails and seed 6's sampled forecasts fail, so
    # neither scenario's forecasts can be computed together. Cells of
    # seed 5 that need no posterior still run, and the grid stops at the
    # first failing cell in grid order: seed 6's static_mc under none.
    net, baselines = j30
    grid = GridConfig(
        instances=(("j30", net, baselines),),
        seeds=(5, 6),
        uncertainties=("low",),
        replicate_count=100,
    )
    seed_5_records = make_scenario("j30", net, baselines, "low", 5, 100, 1.0).observations
    posterior_models = stoched.experiment.posterior_models

    def fails_for_seed_5(priors, records, *args):
        if list(records) == seed_5_records:
            raise OptimizationFailed("seed 5")
        return posterior_models(priors, records, *args)

    monkeypatch.setattr(stoched.experiment, "posterior_models", fails_for_seed_5)
    for module in (stoched.experiment, stoched.simulate):
        simulate_many = vars(module)["simulate_many"]

        def fails_for_seed_6(
            net, model_sets, cfg, workers=1, _simulate_many=simulate_many, **kwargs
        ):
            if cfg.replicate_count > 1 and cfg.seed == stream_key(6, "mc"):
                raise NonFiniteResult("seed 6")
            return _simulate_many(net, model_sets, cfg, workers, **kwargs)

        monkeypatch.setattr(module, "simulate_many", fails_for_seed_6)
    seen = []
    with pytest.raises(NonFiniteResult, match="seed 6"):
        run_matrix(grid, on_result=lambda row, _: seen.append((row.strategy, row.method, row.seed)))
    assert seen == [
        ("none", "deterministic_cpm", 5),
        ("none", "deterministic_cpm", 6),
        ("none", "static_mc", 5),
    ]


def test_grid_config_requires_instances_and_seeds():
    with pytest.raises(ConfigError):
        _grid(instances=())
    with pytest.raises(ConfigError):
        _grid(seeds=())
    instance = ("d", diamond(), DIAMOND_BASELINES)
    with pytest.raises(ConfigError, match="instance name 'd'"):
        _grid(instances=(instance, instance))
    with pytest.raises(ConfigError, match="seed 3 "):
        _grid(seeds=(3, 4, 3))


def test_derive_seeds_deterministic_and_distinct():
    seeds = derive_seeds(7, 10)
    assert seeds == derive_seeds(7, 10)
    assert len(set(seeds)) == 10
    assert seeds != derive_seeds(8, 10)
    assert seeds[3] == stream_key(7, "seed", 3)


# ------------------------------------------------------------- serialization


def _toy_rows():
    return [
        ExperimentRow("inst", m, "none", "low", s, 1.5 + s, 1.0, 20.25, 4.0, 0.25, 6.5)
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
    assert first[11] == "0.0"  # wall_ms is pinned
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
