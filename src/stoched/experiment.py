"""Benchmark experiment harness.

A scenario fixes an uncertainty level, an observation-delivery strategy,
a forecasting method, and a seed. For each scenario one ground-truth
project realization is drawn, noisy per-activity observations are
generated, and the chosen method produces a forecast that is scored
against the realized completion time. Methods:

  deterministic_cpm     CPM on prior-mean durations, point forecast.
  static_mc             Monte Carlo on the priors, no updating.
  bayes_no_propagation  MAP updates, then CPM on posterior means (point).
  full_framework        MAP updates, then Monte Carlo on the final posterior.

Strategies deliver each activity's single observation in ground-truth
earliest-finish order: none (no updates), periodic (4 batches),
continuous (one cycle per observation). Only the final forecast is
scored, so full_framework simulates once, after the last cycle. Ground
truth and observations depend only on (seed, uncertainty, instance),
never on strategy or method, so methods at one seed are scored against
the same realization. run_matrix computes each distinct MAP update and
forecast once and shares it between the cells of an (instance,
uncertainty, seed): static_mc and full_framework/none share the prior
forecast, and bayes_no_propagation and full_framework share the updates.

Known limitation: while each activity has a single observation, periodic
and continuous reach the same posterior, so their rows are equal; the
strategy axis only separates them once forecasts are scored mid-project.

RMSE for sample-based forecasts is per-replicate deviation from the
realized completion time; point forecasts are scored by absolute
deviation. wall_time_ms in rows is a schema placeholder pinned to 0.0 so
that rows (and the CSV) are bit-exact reproducible; runtime lives in the
run manifest instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bayes import ObservationRecord, PosteriorState, make_initial_state, map_update
from .durations import (
    DurationModel,
    expected_duration,
    is_frozen,
    priors_from_baselines,
)
from .errors import ConfigError
from .metrics import mae, rmse, scalar_rmse
from .network import ProjectNetwork, compute_cpm
from .rng import normals, stream_key
from .simulate import ForecastResult, SimulationConfig, simulate

UNCERTAINTY_SIGMA = {"low": 0.1, "moderate": 0.3, "high": 0.5}
OBS_NOISE_FRACTION = {"low": 0.05, "moderate": 0.10, "high": 0.20}
STRATEGIES = ("none", "periodic", "continuous")
METHODS = (
    "deterministic_cpm",
    "static_mc",
    "bayes_no_propagation",
    "full_framework",
)
PERIODIC_BATCHES = 4

# Prior confidence used when initializing per-activity posterior states for
# scenario runs. Each activity yields a single noisy completion measurement,
# so the location prior is kept firm enough that one measurement revises the
# estimate without being adopted wholesale, while the dispersion prior is
# loose enough for residual uncertainty to shrink as evidence accumulates.
PRIOR_TAU_MU = 0.30
PRIOR_TAU_LOG_SIGMA = 0.80

CSV_HEADER = "instance,method,strategy,uncertainty,seed,rmse,mae,e_t,var_t,p_delay,ci90,wall_ms"

_HISTOGRAM_MAX_BINS = 200


@dataclass(frozen=True)
class ScenarioConfig:
    uncertainty: str
    sigma_duration: float
    sigma_obs_fraction: float
    strategy: str
    method: str
    seed: int
    replicate_count: int = 10_000
    target_rule: float = 1.0  # T_target = target_rule * deterministic makespan


@dataclass(frozen=True)
class GroundTruth:
    true_durations: np.ndarray
    t_true: float


@dataclass(frozen=True)
class ExperimentRow:
    instance_name: str
    method: str
    strategy: str
    uncertainty: str
    seed: int
    rmse: float
    mae: float
    expected_completion: float
    completion_variance: float
    delay_probability: float
    ci90_width: float
    wall_time_ms: float


@dataclass(frozen=True)
class GridConfig:
    uncertainties: tuple[str, ...] = ("low", "moderate", "high")
    strategies: tuple[str, ...] = STRATEGIES
    methods: tuple[str, ...] = METHODS
    replicate_count: int = 10_000
    target_rule: float = 1.0


def make_scenario(
    uncertainty: str,
    strategy: str,
    method: str,
    seed: int,
    replicate_count: int = 10_000,
    target_rule: float = 1.0,
    sigma_duration: float | None = None,
    sigma_obs_fraction: float | None = None,
) -> ScenarioConfig:
    """ScenarioConfig with per-level defaults filled in and names checked."""
    if uncertainty not in UNCERTAINTY_SIGMA:
        raise ConfigError(f"unknown uncertainty level {uncertainty!r}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if replicate_count < 1:
        raise ConfigError(f"replicate_count must be >= 1, got {replicate_count}")
    if not (math.isfinite(target_rule) and target_rule > 0):
        raise ConfigError(f"target_rule must be > 0, got {target_rule}")
    return ScenarioConfig(
        uncertainty=uncertainty,
        sigma_duration=(
            UNCERTAINTY_SIGMA[uncertainty] if sigma_duration is None else sigma_duration
        ),
        sigma_obs_fraction=(
            OBS_NOISE_FRACTION[uncertainty]
            if sigma_obs_fraction is None
            else sigma_obs_fraction
        ),
        strategy=strategy,
        method=method,
        seed=seed,
        replicate_count=replicate_count,
        target_rule=target_rule,
    )


def generate_ground_truth(
    net: ProjectNetwork, baseline_durations, cfg: ScenarioConfig
) -> GroundTruth:
    """One realized project: a draw per stochastic activity, frozen zeros
    for dummies, and the resulting actual completion time."""
    priors = priors_from_baselines(baseline_durations, cfg.sigma_duration)
    n = net.activity_count
    z = normals(stream_key(cfg.seed, "truth"), np.arange(n))
    true_durations = np.zeros(n)
    for i, model in enumerate(priors):
        if not is_frozen(model):
            true_durations[i] = math.exp(model.mu + model.sigma * z[i])
    t_true = compute_cpm(net, true_durations).completion_time
    return GroundTruth(true_durations=true_durations, t_true=float(t_true))


def generate_observations(
    net: ProjectNetwork,
    truth: GroundTruth,
    baseline_durations,
    cfg: ScenarioConfig,
) -> list[ObservationRecord]:
    """One noisy observation per stochastic activity.

    Noise sd is sigma_obs_fraction times the activity's baseline, and
    records are ordered by the activity's earliest finish under the true
    durations: the order in which activities complete and become
    observable during execution.
    """
    baselines = np.asarray(baseline_durations, dtype=np.float64)
    observable = [i for i in range(net.activity_count) if baselines[i] > 0]
    ef = compute_cpm(net, truth.true_durations).earliest_finish
    records = []
    for i in sorted(observable, key=lambda i: (ef[i], i)):
        noise_sd = cfg.sigma_obs_fraction * float(baselines[i])
        eps = float(normals(stream_key(cfg.seed, "obs", i), [0])[0])
        records.append(
            ObservationRecord(
                activity=i,
                observed_duration=float(truth.true_durations[i]) + noise_sd * eps,
                noise_sd=noise_sd,
            )
        )
    return records


def observation_batches(
    records: Sequence[ObservationRecord], strategy: str
) -> list[list[ObservationRecord]]:
    """Split the delivery sequence into update cycles."""
    if strategy == "none":
        return []
    if strategy == "continuous":
        return [[r] for r in records]
    if strategy == "periodic":
        batches = [list(part) for part in np.array_split(list(records), PERIODIC_BATCHES)]
        return [b for b in batches if b]
    raise ConfigError(f"unknown strategy {strategy!r}")


def _cached(cache: dict, key, compute):
    """compute() once per key; later calls return the stored value."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _apply_batch(
    states: dict[int, PosteriorState],
    batch: Sequence[ObservationRecord],
    cache: dict,
) -> None:
    grouped: dict[int, list[ObservationRecord]] = {}
    for record in batch:
        grouped.setdefault(record.activity, []).append(record)
    for activity, records in grouped.items():
        state = states[activity]
        states[activity] = _cached(
            cache, (state, tuple(records)), lambda: map_update(state, records)
        )


def posterior_models(
    priors: Sequence[DurationModel], states: dict[int, PosteriorState]
) -> list[DurationModel]:
    return [
        states[i].params if i in states else priors[i]
        for i in range(len(priors))
    ]


def run_method(
    net: ProjectNetwork,
    baseline_durations,
    cfg: ScenarioConfig,
    workers: int = 1,
    instance_name: str = "",
    cache: dict | None = None,
) -> tuple[ExperimentRow, ForecastResult | float]:
    """Score one method in one scenario.

    Returns the row plus the final forecast: a ForecastResult for
    sample-based methods, the point forecast for the deterministic ones.
    cache holds map_update and simulate results keyed by their arguments;
    run_matrix shares one across the cells of an (instance, uncertainty)
    so equal calls are computed once. Without it a fresh one is used.
    """
    if cache is None:
        cache = {}
    baselines = np.asarray(baseline_durations, dtype=np.float64)
    priors = priors_from_baselines(baselines, cfg.sigma_duration)
    det_makespan = compute_cpm(net, baselines).completion_time
    target = cfg.target_rule * det_makespan
    truth = generate_ground_truth(net, baselines, cfg)

    def point_row(point: float) -> ExperimentRow:
        return ExperimentRow(
            instance_name=instance_name,
            method=cfg.method,
            strategy=cfg.strategy,
            uncertainty=cfg.uncertainty,
            seed=cfg.seed,
            rmse=scalar_rmse(point, truth.t_true),
            mae=scalar_rmse(point, truth.t_true),
            expected_completion=point,
            completion_variance=0.0,
            delay_probability=1.0 if point > target else 0.0,
            ci90_width=0.0,
            wall_time_ms=0.0,
        )

    def sample_row(result: ForecastResult) -> ExperimentRow:
        return ExperimentRow(
            instance_name=instance_name,
            method=cfg.method,
            strategy=cfg.strategy,
            uncertainty=cfg.uncertainty,
            seed=cfg.seed,
            rmse=rmse(result.samples, truth.t_true),
            mae=mae(result.samples, truth.t_true),
            expected_completion=result.expected_completion,
            completion_variance=result.completion_variance,
            delay_probability=result.delay_probability,
            ci90_width=result.ci90_width,
            wall_time_ms=0.0,
        )

    if cfg.method == "deterministic_cpm":
        return point_row(float(det_makespan)), float(det_makespan)

    sim_cfg = SimulationConfig(
        replicate_count=cfg.replicate_count,
        seed=stream_key(cfg.seed, "mc"),
        target_completion=target,
        store_samples=True,
    )

    def forecast(models: list[DurationModel]) -> ForecastResult:
        def compute() -> ForecastResult:
            result = simulate(net, models, sim_cfg, workers)
            # Cells share this result: read-only arrays keep one cell's
            # on_result callback from changing another cell's row.
            for array in (
                result.samples,
                result.critical_probability,
                result.critical_counts,
            ):
                array.setflags(write=False)
            return result

        return _cached(cache, (tuple(models), sim_cfg), compute)

    if cfg.method == "static_mc":
        result = forecast(priors)
        return sample_row(result), result

    observations = generate_observations(net, truth, baselines, cfg)
    batches = observation_batches(observations, cfg.strategy)
    states = {
        i: make_initial_state(
            priors[i],
            tau_mu=PRIOR_TAU_MU,
            tau_log_sigma=PRIOR_TAU_LOG_SIGMA,
        )
        for i in range(len(priors))
        if not is_frozen(priors[i])
    }

    for batch in batches:
        _apply_batch(states, batch, cache)
    posterior = posterior_models(priors, states)

    if cfg.method == "bayes_no_propagation":
        post_means = [expected_duration(m) for m in posterior]
        point = compute_cpm(net, post_means).completion_time
        return point_row(float(point)), float(point)

    if cfg.method == "full_framework":
        result = forecast(posterior)
        return sample_row(result), result

    raise ConfigError(f"unknown method {cfg.method!r}")


def run_matrix(
    instances: Sequence[tuple[str, ProjectNetwork, np.ndarray]],
    grid: GridConfig,
    seeds: Sequence[int],
    workers: int = 1,
    on_result=None,
) -> list[ExperimentRow]:
    """All cells of instances x uncertainties x strategies x methods x
    seeds, rows in that deterministic order.

    on_result, when given, is called with (row, forecast) after each cell
    so callers can stream per-cell payloads (histograms). Cells of one
    (instance, uncertainty) share a cache of MAP updates and forecasts,
    so every distinct forecast of it stays in memory until the loop
    moves to the next uncertainty.
    """
    if not instances or not seeds:
        raise ConfigError("experiment needs at least one instance and one seed")
    rows = []
    for name, net, baselines in instances:
        for uncertainty in grid.uncertainties:
            cache: dict = {}
            for strategy in grid.strategies:
                for method in grid.methods:
                    for seed in seeds:
                        cfg = make_scenario(
                            uncertainty,
                            strategy,
                            method,
                            seed,
                            replicate_count=grid.replicate_count,
                            target_rule=grid.target_rule,
                        )
                        row, forecast = run_method(
                            net,
                            baselines,
                            cfg,
                            workers,
                            instance_name=name,
                            cache=cache,
                        )
                        rows.append(row)
                        if on_result is not None:
                            on_result(row, forecast)
    return rows


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic per-slot seeds from one master seed."""
    return [stream_key(master_seed, "seed", j) for j in range(count)]


def csv_lines(rows: Iterable[ExperimentRow]) -> str:
    """Rows as CSV under CSV_HEADER; floats use shortest round-trip form."""
    out = [CSV_HEADER]
    for r in rows:
        out.append(
            ",".join(
                [
                    r.instance_name,
                    r.method,
                    r.strategy,
                    r.uncertainty,
                    str(r.seed),
                    repr(r.rmse),
                    repr(r.mae),
                    repr(r.expected_completion),
                    repr(r.completion_variance),
                    repr(r.delay_probability),
                    repr(r.ci90_width),
                    repr(r.wall_time_ms),
                ]
            )
        )
    return "\n".join(out) + "\n"


def jsonl_lines(rows: Iterable[ExperimentRow]) -> str:
    out = []
    for r in rows:
        out.append(
            json.dumps(
                {
                    "instance": r.instance_name,
                    "method": r.method,
                    "strategy": r.strategy,
                    "uncertainty": r.uncertainty,
                    "seed": r.seed,
                    "rmse": r.rmse,
                    "mae": r.mae,
                    "e_t": r.expected_completion,
                    "var_t": r.completion_variance,
                    "p_delay": r.delay_probability,
                    "ci90": r.ci90_width,
                    "wall_ms": r.wall_time_ms,
                },
                sort_keys=True,
            )
        )
    return "\n".join(out) + "\n"


def completion_histogram(samples) -> list[tuple[float, float, int]]:
    """Freedman-Diaconis bins capped at 200, as (left, right, count)."""
    x = np.asarray(samples, dtype=np.float64)
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return [(lo, hi, int(x.shape[0]))]
    q25, q75 = np.quantile(x, [0.25, 0.75])
    iqr = float(q75 - q25)
    if iqr > 0:
        width = 2.0 * iqr / x.shape[0] ** (1.0 / 3.0)
        bins = int(min(_HISTOGRAM_MAX_BINS, max(1, math.ceil((hi - lo) / width))))
    else:
        bins = 1
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
    ]


def histogram_csv(samples) -> str:
    out = ["bin_left,bin_right,count"]
    for left, right, count in completion_histogram(samples):
        out.append(f"{left!r},{right!r},{count}")
    return "\n".join(out) + "\n"


def median_rmse_by_method(rows: Sequence[ExperimentRow]) -> dict[str, float]:
    by_method: dict[str, list[float]] = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r.rmse)
    return {
        method: float(np.median(values))
        for method, values in sorted(by_method.items())
    }
