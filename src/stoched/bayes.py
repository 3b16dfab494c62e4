"""Recursive MAP updating of lognormal duration parameters.

Observations are noisy measurements of a realized duration,
O = D_true + eps with eps ~ Normal(0, noise_sd). The likelihood of one
observation under parameters theta marginalizes the unseen duration:

    P(O | theta) = integral Normal(O; d, noise_sd) * Lognormal(d; theta) dd

which has no closed form; it is evaluated by a fixed deterministic
trapezoid quadrature in d. The prior over theta is Normal on mu and
Normal on ln sigma. A MAP update maximizes log-likelihood plus log-prior
with Nelder-Mead in (mu, ln sigma) space; recursion means each update
re-anchors the prior centers at the new MAP estimate and discards the
consumed observations, so memory per activity stays constant.

Sampling after an update uses Lognormal(theta_MAP) directly (plug-in
predictive); parameter uncertainty around the MAP point is not
propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import logsumexp

from .durations import SIGMA_MIN, LognormalParams
from .errors import MixedActivities, ObservationFormatError, OptimizationFailed

DEFAULT_TAU_MU = 0.5
DEFAULT_TAU_LOG_SIGMA = 0.5

# Quadrature node budget: 65 log-spaced nodes covering the lognormal's
# mu +- 6 sigma span plus 64 linear nodes covering the observation's
# +- 6 noise_sd window. Two scales because either factor of the
# integrand can be much narrower than the other.
_LOG_NODES = 65
_LIN_NODES = 64

# Box outside which the objective is treated as -inf; keeps exp() from
# overflowing while Nelder-Mead explores. _LOG_SPAN_MAX bounds the
# exponents of the quadrature span exp(mu +- 6 sigma) and of the MAP mean
# exp(mu + sigma^2/2); exp(700) is finite and exp(-700) nonzero.
_MU_BOUND = 200.0
_LOG_SIGMA_LO = -30.0
_LOG_SIGMA_HI = 20.0
_LOG_SPAN_MAX = 700.0

_GRID_SIZE = 41  # fallback grid is 41 x 41

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ObservationRecord:
    activity: int
    observed_duration: float  # may be <= 0: noise is Gaussian
    noise_sd: float  # > 0


@dataclass(frozen=True)
class PriorHyper:
    mu0: float
    tau_mu: float
    log_sigma0: float
    tau_log_sigma: float


@dataclass(frozen=True)
class PosteriorState:
    params: LognormalParams
    observation_count: int
    hyper: PriorHyper


def make_initial_state(
    params: LognormalParams,
    tau_mu: float = DEFAULT_TAU_MU,
    tau_log_sigma: float = DEFAULT_TAU_LOG_SIGMA,
) -> PosteriorState:
    """State whose prior is centered exactly at params (its mode), so an
    update with no observations is a fixpoint."""
    hyper = PriorHyper(
        mu0=params.mu,
        tau_mu=tau_mu,
        log_sigma0=math.log(params.sigma),
        tau_log_sigma=tau_log_sigma,
    )
    return PosteriorState(params=params, observation_count=0, hyper=hyper)


def _validate_records(obs: Sequence[ObservationRecord]) -> None:
    activities = {o.activity for o in obs}
    if len(activities) > 1:
        raise MixedActivities(
            f"observation batch spans activities {sorted(activities)}"
        )
    for o in obs:
        if not (math.isfinite(o.noise_sd) and o.noise_sd > 0):
            raise ValueError(f"noise_sd must be finite and > 0, got {o.noise_sd}")
        if not math.isfinite(o.observed_duration):
            raise ValueError(f"observed duration must be finite, got {o.observed_duration}")


def marginal_log_likelihood(
    theta: LognormalParams, obs: Sequence[ObservationRecord]
) -> float:
    """Sum over observations of the log marginal likelihood under theta.

    Empty input is 0 (vacuous product). The per-observation integrals are
    summed with exact (correctly rounded) accumulation, so the result is
    invariant under permutation of the observation list.
    """
    _validate_records(obs)
    if not obs:
        return 0.0
    values = np.array([o.observed_duration for o in obs])
    noise = np.array([o.noise_sd for o in obs])
    rows = _per_observation_log_likelihood(theta, values, noise)
    return math.fsum(rows.tolist())


def _per_observation_log_likelihood(
    theta: LognormalParams, values: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    mu, sigma = theta.mu, theta.sigma
    lo_ln = math.exp(mu - 6.0 * sigma)
    hi_ln = math.exp(mu + 6.0 * sigma)
    d_log = np.geomspace(lo_ln, hi_ln, _LOG_NODES)

    # Linear nodes across each observation's noise window, clipped to the
    # positive axis. A window entirely at or below zero collapses onto
    # lo_ln; the resulting duplicate nodes get zero trapezoid weight.
    hi_ob = values + 6.0 * noise
    lo_ob = values - 6.0 * noise
    usable = hi_ob > 0
    floor = np.minimum(lo_ln, np.where(usable, hi_ob, lo_ln)) * 1e-9
    start = np.where(usable, np.maximum(lo_ob, floor), lo_ln)
    stop = np.where(usable, hi_ob, lo_ln)
    ramp = np.linspace(0.0, 1.0, _LIN_NODES)
    d_lin = start[:, None] + (stop - start)[:, None] * ramp[None, :]

    m = values.shape[0]
    nodes = np.concatenate(
        [np.broadcast_to(d_log, (m, _LOG_NODES)), d_lin], axis=1
    )
    nodes = np.sort(nodes, axis=1)

    weights = np.empty_like(nodes)
    weights[:, 1:-1] = 0.5 * (nodes[:, 2:] - nodes[:, :-2])
    weights[:, 0] = 0.5 * (nodes[:, 1] - nodes[:, 0])
    weights[:, -1] = 0.5 * (nodes[:, -1] - nodes[:, -2])

    log_d = np.log(nodes)
    z_ln = (log_d - mu) / sigma
    log_lognormal = -log_d - math.log(sigma) - _LOG_SQRT_2PI - 0.5 * z_ln * z_ln
    # Zero weights (duplicate nodes) and tiny noise sds (z_n^2 overflowing)
    # both give terms of exactly -inf, which logsumexp drops.
    with np.errstate(divide="ignore", over="ignore"):
        log_w = np.log(weights)
        z_n = (values[:, None] - nodes) / noise[:, None]
        log_normal = -np.log(noise)[:, None] - _LOG_SQRT_2PI - 0.5 * z_n * z_n
    return logsumexp(log_normal + log_lognormal + log_w, axis=1)


def log_prior(theta: LognormalParams, hyper: PriorHyper) -> float:
    """Normal log-density on mu plus Normal log-density on ln sigma."""
    z_mu = (theta.mu - hyper.mu0) / hyper.tau_mu
    z_ls = (math.log(theta.sigma) - hyper.log_sigma0) / hyper.tau_log_sigma
    return (
        -0.5 * z_mu * z_mu
        - math.log(hyper.tau_mu)
        - _LOG_SQRT_2PI
        - 0.5 * z_ls * z_ls
        - math.log(hyper.tau_log_sigma)
        - _LOG_SQRT_2PI
    )


def _objective(
    mu: float, log_sigma: float, obs: Sequence[ObservationRecord], hyper: PriorHyper
) -> float:
    if abs(mu) > _MU_BOUND or not _LOG_SIGMA_LO <= log_sigma <= _LOG_SIGMA_HI:
        return -math.inf
    if abs(mu) + 6.0 * math.exp(log_sigma) > _LOG_SPAN_MAX:
        return -math.inf
    theta = LognormalParams(mu=mu, sigma=math.exp(log_sigma))
    return marginal_log_likelihood(theta, obs) + log_prior(theta, hyper)


def map_update(
    state: PosteriorState, new_obs: Sequence[ObservationRecord]
) -> PosteriorState:
    """Posterior state after absorbing a batch of observations.

    params becomes the argmax of marginal_log_likelihood + log_prior; the
    prior centers are then re-anchored at the new params (with unchanged
    taus) and the consumed observations are discarded. An empty batch
    returns the state unchanged: the prior's argmax is its own center.
    Raises OptimizationFailed when the objective is non-finite everywhere
    or the MAP mean duration exp(mu + sigma^2/2) would overflow.
    """
    obs = tuple(new_obs)
    _validate_records(obs)
    if not obs:
        return state
    hyper = state.hyper

    def negated(x: np.ndarray) -> float:
        return -_objective(float(x[0]), float(x[1]), obs, hyper)

    x0 = np.array([state.params.mu, math.log(state.params.sigma)])
    result = minimize(
        negated,
        x0,
        method="Nelder-Mead",
        options={"maxiter": 500, "xatol": 1e-6, "fatol": 1e-8},
    )
    best_mu, best_log_sigma = float(result.x[0]), float(result.x[1])
    best_value = -float(result.fun)

    if not math.isfinite(best_value):
        best_mu, best_log_sigma, best_value = _grid_argmax(x0, obs, hyper)
        if not math.isfinite(best_value):
            raise OptimizationFailed(
                "MAP objective is non-finite at every probe point"
            )
    if best_mu + 0.5 * math.exp(2.0 * best_log_sigma) > _LOG_SPAN_MAX:
        raise OptimizationFailed(
            f"MAP estimate mu={best_mu:.6g}, sigma={math.exp(best_log_sigma):.6g} "
            "has a mean duration too large to represent"
        )

    params = LognormalParams(
        mu=best_mu, sigma=max(math.exp(best_log_sigma), SIGMA_MIN)
    )
    new_hyper = PriorHyper(
        mu0=params.mu,
        tau_mu=hyper.tau_mu,
        log_sigma0=math.log(params.sigma),
        tau_log_sigma=hyper.tau_log_sigma,
    )
    return PosteriorState(
        params=params,
        observation_count=state.observation_count + len(obs),
        hyper=new_hyper,
    )


def _grid_argmax(
    x0: np.ndarray, obs: Sequence[ObservationRecord], hyper: PriorHyper
) -> tuple[float, float, float]:
    """Coarse grid fallback around the starting point."""
    mus = np.linspace(x0[0] - 3.0, x0[0] + 3.0, _GRID_SIZE)
    log_sigmas = np.linspace(math.log(1e-3), math.log(2.0), _GRID_SIZE)
    best = (float(x0[0]), float(x0[1]), -math.inf)
    for mu in mus:
        for ls in log_sigmas:
            value = _objective(float(mu), float(ls), obs, hyper)
            if value > best[2]:
                best = (float(mu), float(ls), value)
    return best


def parse_observation_text(text: str) -> list[tuple[int, ObservationRecord]]:
    """Parse observation records, one per line:

        activity_index observed_duration noise_sd

    whitespace-separated decimals; blank lines and '#' comments ignored.
    Returns (line_number, record) pairs so callers can report positions.
    """
    records: list[tuple[int, ObservationRecord]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ObservationFormatError(
                f"line {lineno}: expected 'activity observed noise_sd', got {raw!r}"
            )
        try:
            activity = int(tokens[0])
            observed = float(tokens[1])
            noise_sd = float(tokens[2])
        except ValueError as exc:
            raise ObservationFormatError(
                f"line {lineno}: non-numeric field in {raw!r}"
            ) from exc
        if activity < 0:
            raise ObservationFormatError(
                f"line {lineno}: activity index must be >= 0, got {activity}"
            )
        if not (math.isfinite(noise_sd) and noise_sd > 0):
            raise ObservationFormatError(
                f"line {lineno}: noise_sd must be finite and > 0, got {tokens[2]}"
            )
        if not math.isfinite(observed):
            raise ObservationFormatError(
                f"line {lineno}: observed duration must be finite, got {tokens[1]}"
            )
        records.append((lineno, ObservationRecord(activity, observed, noise_sd)))
    return records
