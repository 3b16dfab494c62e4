"""Benchmark experiment harness.

A GridConfig is the whole grid, instances x uncertainty levels x
strategies x methods x seeds, and checks it when built; run_matrix runs
it and checks nothing.

A scenario is one (instance, uncertainty, seed): its priors, one
ground-truth project realization, and one noisy observation per
stochastic activity. make_scenario builds it once, and every cell of the
grid at that seed, one per (strategy, method), is scored against the
same realization, so methods are compared on the same project. Methods:

  deterministic_cpm     CPM on prior-mean durations, point forecast.
  static_mc             Monte Carlo on the priors, no updating.
  bayes_no_propagation  MAP updates, then CPM on posterior means (point).
  full_framework        MAP updates, then Monte Carlo on the final posterior.

A strategy says which observations reach the forecast. Each stochastic
activity has one observation, delivered in ground-truth earliest-finish
order: none delivers none of them, periodic and continuous all of them
before the only scored forecast. So the Bayes methods forecast the
priors under none, and under periodic and continuous the scenario's one
posterior, one MAP update per observed activity. A Scenario also
memoizes that posterior and its forecasts, so each distinct one is
computed once for all of its cells: static_mc and full_framework/none
share the prior forecast, and bayes_no_propagation and full_framework
share the posterior. run_matrix computes a scenario's distinct sampled
forecasts (the priors' and the posterior's) in one simulate_many call,
so they share one draw pass: the same normals, hashed once, as common
random numbers. Each forecast past the first costs one more duration
matrix per worker.

Known limitation: periodic and continuous rows are therefore equal in
every field but the strategy; the strategy axis only separates them
once forecasts are scored mid-project.

A point forecast is one replicate over frozen durations, scored like
any other: RMSE is per-replicate deviation from the realized completion
time, on one sample the absolute deviation. The wall_ms column is a
schema placeholder pinned to 0.0 so that rows (and the CSV) are
bit-exact reproducible; runtime lives in the run manifest instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .bayes import ObservationRecord, PosteriorState, map_updates
from .durations import (
    DurationModel,
    FrozenDuration,
    expected_duration,
    is_frozen,
    priors_from_baselines,
)
from .errors import ConfigError, NonFiniteResult, NumericalError
from .metrics import mae, rmse
from .network import ProjectNetwork, compute_cpm
from .rng import normals, stream_key
from .simulate import ForecastResult, SimulationConfig, simulate, simulate_many

UNCERTAINTY_SIGMA = {"low": 0.1, "moderate": 0.3, "high": 0.5}
OBS_NOISE_FRACTION = {"low": 0.05, "moderate": 0.10, "high": 0.20}
STRATEGIES = ("none", "periodic", "continuous")
METHODS = (
    "deterministic_cpm",
    "static_mc",
    "bayes_no_propagation",
    "full_framework",
)
# Methods that forecast with one replicate: a CPM pass, no histogram.
POINT_METHODS = ("deterministic_cpm", "bayes_no_propagation")

# Prior confidence used when initializing per-activity posterior states for
# scenario runs. Each activity yields a single noisy completion measurement,
# so the location prior is kept firm enough that one measurement revises the
# estimate without being adopted wholesale, while the dispersion prior is
# loose enough for residual uncertainty to shrink as evidence accumulates.
PRIOR_TAU_MU = 0.30
PRIOR_TAU_LOG_SIGMA = 0.80

# Result columns in file order, with the ExperimentRow attribute each one
# holds; wall_ms has none and is written as 0.0.
ROW_COLUMNS = (
    ("instance", "instance_name"),
    ("method", "method"),
    ("strategy", "strategy"),
    ("uncertainty", "uncertainty"),
    ("seed", "seed"),
    ("rmse", "rmse"),
    ("mae", "mae"),
    ("e_t", "expected_completion"),
    ("var_t", "completion_variance"),
    ("p_delay", "delay_probability"),
    ("ci90", "ci90_width"),
    ("wall_ms", None),
)
CSV_HEADER = ",".join(column for column, _ in ROW_COLUMNS)

_HISTOGRAM_MAX_BINS = 200


@dataclass(frozen=True)
class GroundTruth:
    true_durations: np.ndarray
    t_true: float
    earliest_finish: np.ndarray  # per activity, under the true durations


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


def check_seed(seed: int, name: str) -> None:
    """Raise ConfigError, naming the seed, unless it lies in 0..2**64-1:
    stream_key takes seeds modulo 2**64, so one outside that range would
    silently run as another."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name}: {seed} is outside 0..2**64-1")


@dataclass(frozen=True, eq=False)
class GridConfig:
    """Every axis must be non-empty and hold distinct values (instances by
    name, seeds in 0..2**64-1 as check_seed asks): repeats would give rows
    that cannot be told apart."""

    instances: tuple[tuple[str, ProjectNetwork, np.ndarray], ...]
    seeds: tuple[int, ...]
    uncertainties: tuple[str, ...] = ("low", "moderate", "high")
    strategies: tuple[str, ...] = STRATEGIES
    methods: tuple[str, ...] = METHODS
    replicate_count: int = 10_000
    target_rule: float = 1.0  # T_target = target_rule * deterministic makespan

    def __post_init__(self) -> None:
        for axis, values, allowed in (
            ("instance name", [name for name, _, _ in self.instances], None),
            ("uncertainty level", self.uncertainties, UNCERTAINTY_SIGMA),
            ("strategy", self.strategies, STRATEGIES),
            ("method", self.methods, METHODS),
            ("seed", self.seeds, None),
        ):
            if not values:
                raise ConfigError(f"no {axis} given: the grid would be empty")
            for i, value in enumerate(values):
                if allowed is not None and value not in allowed:
                    raise ConfigError(f"unknown {axis} {value!r}")
                if value in values[:i]:
                    raise ConfigError(f"{axis} {value!r} is given more than once")
        for seed in self.seeds:
            check_seed(seed, "seeds")
        if self.replicate_count < 1:
            raise ConfigError(
                f"replicate_count must be >= 1, got {self.replicate_count}"
            )
        if not (math.isfinite(self.target_rule) and self.target_rule > 0):
            raise ConfigError(f"target_rule must be > 0, got {self.target_rule}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """One (instance, uncertainty, seed) and everything its cells share.

    memo holds the posterior, under "posterior", and the forecasts, keyed
    by their models and replicate count, so cells that need one compute
    it once.
    """

    instance_name: str
    net: ProjectNetwork
    uncertainty: str
    seed: int
    priors: list[DurationModel]
    baselines: np.ndarray  # deterministic_cpm freezes these
    sim_cfg: SimulationConfig  # its target_completion is the delay target
    truth: GroundTruth
    observations: list[ObservationRecord]
    memo: dict = field(default_factory=dict, repr=False)


def make_scenario(
    instance_name: str,
    net: ProjectNetwork,
    baseline_durations,
    uncertainty: str,
    seed: int,
    replicate_count: int,
    target_rule: float,
) -> Scenario:
    """Priors, truth and observations of one seed at one uncertainty level.

    Names and numbers are not checked here: run_matrix takes them from a
    GridConfig, which checked them when it was built.
    """
    baselines = np.asarray(baseline_durations, dtype=np.float64)
    priors = priors_from_baselines(baselines, UNCERTAINTY_SIGMA[uncertainty])
    plan_makespan = float(compute_cpm(net, baselines).completion_time)
    truth = generate_ground_truth(net, priors, seed)
    return Scenario(
        instance_name=instance_name,
        net=net,
        uncertainty=uncertainty,
        seed=seed,
        priors=priors,
        baselines=baselines,
        sim_cfg=SimulationConfig(
            replicate_count=replicate_count,
            seed=stream_key(seed, "mc"),
            target_completion=target_rule * plan_makespan,
        ),
        truth=truth,
        observations=generate_observations(
            net, truth, baselines, OBS_NOISE_FRACTION[uncertainty], seed
        ),
    )


def generate_ground_truth(
    net: ProjectNetwork, priors: Sequence[DurationModel], seed: int
) -> GroundTruth:
    """One realized project: a draw per stochastic activity, frozen zeros
    for dummies, and the resulting completion and earliest finish times."""
    n = net.activity_count
    z = normals(stream_key(seed, "truth"), np.arange(n))
    true_durations = np.zeros(n)
    for i, model in enumerate(priors):
        if not is_frozen(model):
            try:
                true_durations[i] = math.exp(model.mu + model.sigma * z[i])
            except OverflowError:
                raise NonFiniteResult(
                    f"activity {i}: the ground-truth duration draw overflows"
                ) from None
    cpm = compute_cpm(net, true_durations)
    return GroundTruth(true_durations, cpm.completion_time, cpm.earliest_finish)


def generate_observations(
    net: ProjectNetwork,
    truth: GroundTruth,
    baseline_durations,
    noise_fraction: float,
    seed: int,
) -> list[ObservationRecord]:
    """One noisy observation per stochastic activity.

    Noise sd is noise_fraction times the activity's baseline, and records
    are ordered by the activity's earliest finish under the true
    durations: the order in which activities complete and become
    observable during execution.
    """
    baselines = np.asarray(baseline_durations, dtype=np.float64)
    observable = [i for i in range(net.activity_count) if baselines[i] > 0]
    records = []
    for i in sorted(observable, key=lambda i: (truth.earliest_finish[i], i)):
        noise_sd = noise_fraction * float(baselines[i])
        eps = float(normals(stream_key(seed, "obs", i), [0])[0])
        records.append(
            ObservationRecord(
                activity=i,
                observed_duration=float(truth.true_durations[i]) + noise_sd * eps,
                noise_sd=noise_sd,
            )
        )
    return records


def posterior_models(
    priors: Sequence[DurationModel],
    records: Iterable[ObservationRecord],
    tau_mu: float,
    tau_log_sigma: float,
) -> list[DurationModel]:
    """Priors updated by the records: one MAP update per observed
    activity over all of its records, all solved in one map_updates call.
    Activities without observations keep their prior object."""
    grouped: dict[int, list[ObservationRecord]] = {}
    for record in records:
        grouped.setdefault(record.activity, []).append(record)
    states = map_updates([
        (PosteriorState(priors[activity], tau_mu=tau_mu, tau_log_sigma=tau_log_sigma), obs)
        for activity, obs in grouped.items()
    ])
    posterior = list(priors)
    for activity, state in zip(grouped, states):
        posterior[activity] = state.params
    return posterior


def _posterior(scenario: Scenario, strategy: str) -> list[DurationModel]:
    """The priors under none. periodic and continuous both deliver every
    observation before the only scored forecast, so they share the
    scenario's one posterior."""
    if strategy == "none":
        return scenario.priors
    if "posterior" not in scenario.memo:
        scenario.memo["posterior"] = posterior_models(
            scenario.priors, scenario.observations, PRIOR_TAU_MU, PRIOR_TAU_LOG_SIGMA
        )
    return scenario.memo["posterior"]


def _cell_models(
    scenario: Scenario, strategy: str, method: str
) -> tuple[list[DurationModel], int]:
    """The models a cell forecasts, and with how many replicates: a point
    method forecasts one replicate over frozen durations."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if method == "deterministic_cpm":
        models = [FrozenDuration(float(d)) for d in scenario.baselines]
    elif method == "static_mc":
        models = scenario.priors
    elif method == "bayes_no_propagation":
        means = map(expected_duration, _posterior(scenario, strategy))
        models = [FrozenDuration(d) for d in means]
    else:
        models = _posterior(scenario, strategy)
    replicates = 1 if method in POINT_METHODS else scenario.sim_cfg.replicate_count
    return models, replicates


def _forecast(
    scenario: Scenario, models: list[DurationModel], replicates: int, workers: int
) -> ForecastResult:
    key = (tuple(models), replicates)
    if key not in scenario.memo:
        cfg = replace(scenario.sim_cfg, replicate_count=replicates)
        scenario.memo[key] = _shared(simulate(scenario.net, models, cfg, workers))
    return scenario.memo[key]


def _shared(result: ForecastResult) -> ForecastResult:
    """Cells share a forecast: read-only arrays keep one cell's on_result
    callback from changing another cell's row."""
    for array in (result.samples, result.critical_probability, result.critical_counts):
        array.setflags(write=False)
    return result


def _sampled_forecasts(
    scenario: Scenario, strategies: Sequence[str], methods: Sequence[str], workers: int
) -> None:
    """Store in memo the distinct forecasts at the configured replicate
    count that the cells of these strategies and methods score, from one
    simulate_many call over them in grid order. A posterior or a call
    that fails stores nothing: the cells that need it compute it on their
    own, so the failure surfaces at the first of them, as if every cell
    computed alone."""
    distinct: dict = {}
    for strategy in strategies:
        for method in methods:
            try:
                models, replicates = _cell_models(scenario, strategy, method)
            except NumericalError:
                continue
            if replicates == scenario.sim_cfg.replicate_count:
                distinct.setdefault((tuple(models), replicates), models)
    try:
        forecasts = simulate_many(
            scenario.net, list(distinct.values()), scenario.sim_cfg, workers
        )
    except NumericalError:
        return
    scenario.memo.update(zip(distinct, map(_shared, forecasts)))


def run_method(
    scenario: Scenario, strategy: str, method: str, workers: int = 1
) -> tuple[ExperimentRow, ForecastResult]:
    """Score one method under one strategy in one scenario.

    Returns the row plus the final forecast. A point method's forecast
    is one replicate whose sample is the CPM makespan of its durations.
    """
    models, replicates = _cell_models(scenario, strategy, method)
    forecast = _forecast(scenario, models, replicates, workers)

    t_true = scenario.truth.t_true
    row = ExperimentRow(
        scenario.instance_name,
        method,
        strategy,
        scenario.uncertainty,
        scenario.seed,
        rmse(forecast.samples, t_true),
        mae(forecast.samples, t_true),
        forecast.expected_completion,
        forecast.completion_variance,
        forecast.delay_probability,
        forecast.ci90_width,
    )
    return row, forecast


def run_matrix(
    grid: GridConfig, workers: int = 1, on_result=None
) -> list[ExperimentRow]:
    """All cells of the grid, rows in instances x uncertainties x
    strategies x methods x seeds order. GridConfig has checked the grid.

    on_result, when given, is called with (row, forecast) after each cell
    so callers can stream per-cell payloads (histograms). The scenarios
    of one (instance, uncertainty) are built once and live until the loop
    moves to the next uncertainty, and with them every distinct forecast
    they memoize. Each scenario computes its sampled forecasts in one
    draw pass before its first cell.
    """
    rows = []
    for name, net, baselines in grid.instances:
        for uncertainty in grid.uncertainties:
            scenarios = [
                make_scenario(
                    name,
                    net,
                    baselines,
                    uncertainty,
                    seed,
                    grid.replicate_count,
                    grid.target_rule,
                )
                for seed in grid.seeds
            ]
            for scenario in scenarios:
                _sampled_forecasts(scenario, grid.strategies, grid.methods, workers)
            for strategy in grid.strategies:
                for method in grid.methods:
                    for scenario in scenarios:
                        row, forecast = run_method(scenario, strategy, method, workers)
                        rows.append(row)
                        if on_result is not None:
                            on_result(row, forecast)
    return rows


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Deterministic per-slot seeds from one master seed."""
    return [stream_key(master_seed, "seed", j) for j in range(count)]


def _row_values(row: ExperimentRow) -> list[tuple[str, object]]:
    return [
        (column, 0.0 if attr is None else getattr(row, attr))
        for column, attr in ROW_COLUMNS
    ]


def csv_lines(rows: Iterable[ExperimentRow]) -> str:
    """Rows as CSV under CSV_HEADER; floats use shortest round-trip form."""
    out = [CSV_HEADER]
    for r in rows:
        out.append(",".join(str(value) for _, value in _row_values(r)))
    return "\n".join(out) + "\n"


def jsonl_lines(rows: Iterable[ExperimentRow]) -> str:
    out = [finite_json(dict(_row_values(r)), sort_keys=True) for r in rows]
    return "\n".join(out) + "\n"


def finite_json(value, **dump_args) -> str:
    """json.dumps, raising NonFiniteResult where it would write NaN or
    Infinity, which are not JSON."""
    try:
        return json.dumps(value, allow_nan=False, **dump_args)
    except ValueError:
        raise NonFiniteResult(
            "a result is inf or NaN: the durations overflow double precision"
        ) from None


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
