"""Shared test helpers: fixture loading, small networks, random DAGs,
the lognormal log-density oracle, a pure-Python splitmix64 uniform, a
frozen copy of the library-built MAP quadrature and a frozen copy of the
MAP update that ran scipy's Nelder-Mead."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import logsumexp

from stoched import bayes
from stoched.bayes import PosteriorState, log_prior, marginal_log_likelihood
from stoched.durations import SIGMA_MIN, LognormalParams
from stoched.errors import OptimizationFailed
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


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64_finalize(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def splitmix64_uniform(key: int, counter: int) -> float:
    """The uniform at one counter of a stream, in Python integers: the
    finalizer applied to the golden-ratio-offset counter, then again after
    keying; the top 53 bits plus a half ulp, scaled into (0, 1)."""
    x = _splitmix64_finalize((counter + 0x9E3779B97F4A7C15) & _MASK64)
    bits = _splitmix64_finalize(x ^ key)
    return ((bits >> 11) + 0.5) * 2.0**-53


def reference_quadrature(
    theta: LognormalParams, values: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Per-observation log marginal likelihoods built from np.geomspace,
    np.linspace, np.concatenate and scipy's logsumexp: the quadrature as
    it stood before it was rewritten in plain numpy, kept to pin that
    rewrite to the same bits."""
    mu, sigma = theta.mu, theta.sigma
    lo_ln = math.exp(mu - 6.0 * sigma)
    hi_ln = math.exp(mu + 6.0 * sigma)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d_log = np.geomspace(lo_ln, hi_ln, 65)
        hi_ob = values + 6.0 * noise
        lo_ob = values - 6.0 * noise
        usable = hi_ob > 0
        floor = np.minimum(lo_ln, np.where(usable, hi_ob, lo_ln)) * 1e-9
        start = np.where(usable, np.maximum(lo_ob, floor), lo_ln)
        stop = np.where(usable, hi_ob, lo_ln)
        ramp = np.linspace(0.0, 1.0, 64)
        d_lin = start[:, None] + (stop - start)[:, None] * ramp[None, :]
        m = values.shape[0]
        nodes = np.concatenate([np.broadcast_to(d_log, (m, 65)), d_lin], axis=1)
        nodes = np.sort(nodes, axis=1)
        weights = np.empty_like(nodes)
        weights[:, 1:-1] = 0.5 * (nodes[:, 2:] - nodes[:, :-2])
        weights[:, 0] = 0.5 * (nodes[:, 1] - nodes[:, 0])
        weights[:, -1] = 0.5 * (nodes[:, -1] - nodes[:, -2])
        log_d = np.log(nodes)
        z_ln = (log_d - mu) / sigma
        log_lognormal = -log_d - math.log(sigma) - _LOG_SQRT_2PI - 0.5 * z_ln * z_ln
        log_w = np.log(weights)
        z_n = (values[:, None] - nodes) / noise[:, None]
        log_normal = -np.log(noise)[:, None] - _LOG_SQRT_2PI - 0.5 * z_n * z_n
        return logsumexp(log_normal + log_lognormal + log_w, axis=1)


def _reference_objective(mu, log_sigma, obs, state):
    if abs(mu) > bayes._MU_BOUND or not bayes._LOG_SIGMA_LO <= log_sigma <= bayes._LOG_SIGMA_HI:
        return -math.inf
    if abs(mu) + 6.0 * math.exp(log_sigma) > bayes._LOG_SPAN_MAX:
        return -math.inf
    theta = LognormalParams(mu=mu, sigma=math.exp(log_sigma))
    return marginal_log_likelihood(theta, obs) + log_prior(theta, state)


def reference_nelder_mead(state: PosteriorState, obs):
    """scipy's Nelder-Mead on the negated MAP objective, from the state's
    params, with the options the MAP update used."""

    def negated(x: np.ndarray) -> float:
        return -_reference_objective(float(x[0]), float(x[1]), obs, state)

    x0 = np.array([state.params.mu, math.log(state.params.sigma)])
    # A simplex that sees only -inf subtracts inf from inf in its
    # convergence test; that case is handled by the grid fallback.
    with np.errstate(invalid="ignore"):
        return minimize(
            negated,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 500, "xatol": 1e-6, "fatol": 1e-8},
        )


def reference_map_update(state: PosteriorState, new_obs) -> PosteriorState:
    """The MAP update as it stood when it called
    scipy.optimize.minimize(method="Nelder-Mead") one problem at a time:
    the oracle that the lockstep solver must match bit for bit."""
    obs = tuple(new_obs)
    bayes._validate_records(obs)
    if not obs:
        return state

    x0 = np.array([state.params.mu, math.log(state.params.sigma)])
    result = reference_nelder_mead(state, obs)
    best_mu, best_log_sigma = float(result.x[0]), float(result.x[1])
    best_value = -float(result.fun)

    if not (result.success and math.isfinite(best_value)):
        grid_mu, grid_log_sigma, grid_value = reference_grid_argmax(x0, obs, state)
        if not math.isfinite(best_value) or grid_value > best_value:
            best_mu, best_log_sigma, best_value = grid_mu, grid_log_sigma, grid_value
        if not math.isfinite(best_value):
            raise OptimizationFailed(
                "MAP objective is non-finite at every probe point"
            )
    if best_mu + 0.5 * math.exp(2.0 * best_log_sigma) > bayes._LOG_SPAN_MAX:
        raise OptimizationFailed(
            f"MAP estimate mu={best_mu:.6g}, sigma={math.exp(best_log_sigma):.6g} "
            "has a mean duration too large to represent"
        )

    params = LognormalParams(
        mu=best_mu, sigma=max(math.exp(best_log_sigma), SIGMA_MIN)
    )
    return PosteriorState(
        params,
        state.observation_count + len(obs),
        state.tau_mu,
        state.tau_log_sigma,
    )


def reference_grid_argmax(x0, obs, state, objective=_reference_objective):
    """The fallback grid search one point at a time, mu outer."""
    mus = np.linspace(x0[0] - 3.0, x0[0] + 3.0, 41)
    log_sigmas = np.linspace(math.log(1e-3), math.log(2.0), 41)
    best = (float(x0[0]), float(x0[1]), -math.inf)
    for mu in mus:
        for ls in log_sigmas:
            value = objective(float(mu), float(ls), obs, state)
            if value > best[2]:
                best = (float(mu), float(ls), value)
    return best


@pytest.fixture
def j30_net_and_baselines():
    from stoched.psplib import parse_sm, to_network

    inst = parse_sm(read_fixture("j30_fix_a.sm"), instance_name="j30_fix_a")
    return to_network(inst)
