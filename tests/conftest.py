"""Shared test helpers: fixture loading, small networks, random DAGs,
the lognormal log-density oracle, a pure-Python splitmix64 uniform,
scipy's Nelder-Mead and a loop-based grid search on the MAP objective,
and an exhaustive grid search of the solver's own objective."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from stoched import bayes
from stoched.bayes import PosteriorState, log_prior, marginal_log_likelihood
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


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64_finalize(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def splitmix64_uniform(key: int, counter: int) -> float:
    """The uniform at one counter of a stream, in Python integers: the
    finalizer applied to the golden-ratio-offset counter, then again after
    keying; the top 53 bits plus a half ulp, scaled into (0, 1). All 53
    bits set would round to 1 and give the largest double below 1."""
    x = _splitmix64_finalize((counter + 0x9E3779B97F4A7C15) & _MASK64)
    bits = _splitmix64_finalize(x ^ key)
    return min(((bits >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def _reference_objective(mu, log_sigma, obs, state):
    if abs(mu) > bayes._MU_BOUND or not bayes._LOG_SIGMA_LO <= log_sigma <= bayes._LOG_SIGMA_HI:
        return -math.inf
    if abs(mu) + 6.0 * math.exp(log_sigma) > bayes._LOG_SPAN_MAX:
        return -math.inf
    theta = LognormalParams(mu=mu, sigma=math.exp(log_sigma))
    return marginal_log_likelihood(theta, obs) + log_prior(theta, state)


def reference_nelder_mead(state: PosteriorState, obs):
    """scipy's Nelder-Mead on the negated MAP objective, from the state's
    params, with the options the MAP update used before it took Newton
    steps: the independent optimizer that Newton must match or beat."""

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


def map_objective(prior: PosteriorState, obs, mus, sigmas) -> np.ndarray:
    """The objective that map_update(prior, obs) maximizes, at each
    (mus[k], sigmas[k]), all points in one call."""
    points = np.column_stack([mus, np.log(sigmas)])
    problems = bayes._Problems([(prior, tuple(obs))])
    return np.array(problems.objectives(np.zeros(len(points), dtype=np.intp), points))


def grid_best(obs, prior: PosteriorState, n: int = 120) -> float:
    """Best objective value found by exhaustive grid search over
    mu in [ln 5, ln 30] x sigma in [1e-3, 1.5]."""
    mus, sigmas = np.meshgrid(
        np.linspace(math.log(5.0), math.log(30.0), n), np.linspace(1e-3, 1.5, n)
    )
    return float(np.max(map_objective(prior, obs, mus.ravel(), sigmas.ravel())))


def achieved(state: PosteriorState, obs, prior: PosteriorState) -> float:
    """The MAP objective at state.params, as grid_best scores its points."""
    return float(map_objective(prior, obs, [state.params.mu], [state.params.sigma])[0])


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
