"""Stochastic schedule forecasting.

Activity durations on a precedence network are modeled as lognormal
random variables; Monte Carlo propagation turns them into completion-time
forecasts with criticality probabilities, and noisy progress observations
tighten the per-activity distributions through recursive MAP updates.
"""

__version__ = "0.1.0"

from .bayes import (
    ObservationRecord,
    PosteriorState,
    PriorHyper,
    log_prior,
    make_initial_state,
    map_update,
    marginal_log_likelihood,
)
from .durations import (
    SIGMA_MIN,
    DurationModel,
    FrozenDuration,
    LognormalParams,
    expected_duration,
    from_baseline,
    priors_from_baselines,
)
from .experiment import (
    ExperimentRow,
    GridConfig,
    GroundTruth,
    Scenario,
    generate_ground_truth,
    generate_observations,
    make_scenario,
    run_matrix,
    run_method,
)
from .metrics import mae, rmse, scalar_rmse
from .network import (
    CpmResult,
    ProjectNetwork,
    build_network,
    compute_cpm,
    enumerate_paths,
)
from .psplib import PsplibInstance, canonical_sm, parse_sm, to_network
from .rng import normals, stream_key, uniforms
from .simulate import (
    ForecastResult,
    SimulationConfig,
    delay_probability_from,
    simulate,
)

__all__ = [
    "__version__",
    "CpmResult",
    "DurationModel",
    "ExperimentRow",
    "ForecastResult",
    "FrozenDuration",
    "GridConfig",
    "GroundTruth",
    "LognormalParams",
    "ObservationRecord",
    "PosteriorState",
    "PriorHyper",
    "ProjectNetwork",
    "PsplibInstance",
    "Scenario",
    "SIGMA_MIN",
    "SimulationConfig",
    "build_network",
    "canonical_sm",
    "compute_cpm",
    "delay_probability_from",
    "enumerate_paths",
    "expected_duration",
    "from_baseline",
    "generate_ground_truth",
    "generate_observations",
    "log_prior",
    "mae",
    "make_initial_state",
    "make_scenario",
    "map_update",
    "marginal_log_likelihood",
    "normals",
    "parse_sm",
    "priors_from_baselines",
    "rmse",
    "run_matrix",
    "run_method",
    "scalar_rmse",
    "simulate",
    "stream_key",
    "to_network",
    "uniforms",
]
