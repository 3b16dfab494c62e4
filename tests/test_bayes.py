"""Recursive MAP updating: likelihood quadrature, optimizer, text parsing.

Independent oracle routes are used here and must stay separate:
  - the marginal likelihood integral is checked against a high-node
    scipy-based trapezoid integrator (different densities, a different
    variable and a wider span) and, for vanishing noise, against the
    lognormal density itself;
  - the optimizer is checked against an exhaustive 2-D grid search and
    against scipy's Nelder-Mead, both maximizing the same objective.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import logsumexp

from conftest import (
    achieved,
    grid_best,
    log_pdf,
    reference_grid_argmax,
    reference_nelder_mead,
)
from stoched import bayes
from stoched.bayes import (
    ObservationRecord,
    PosteriorState,
    log_prior,
    map_update,
    map_updates,
    marginal_log_likelihood,
    parse_observation_text,
)
from stoched.durations import SIGMA_MIN, LognormalParams, expected_duration, from_baseline
from stoched.errors import MixedActivities, ObservationFormatError, OptimizationFailed


def oracle_mll(theta: LognormalParams, obs, span: float = 8.0, nodes: int = 1280) -> float:
    """Independent high-node trapezoid evaluation of the marginal
    log-likelihood in d, built on scipy densities: log-spaced nodes over
    the lognormal's mu +- span sigma, linear ones over the observation's
    +- span noise_sd."""
    total = 0.0
    for o in obs:
        lo = math.exp(theta.mu - span * theta.sigma)
        hi = math.exp(theta.mu + span * theta.sigma)
        d = np.geomspace(lo, hi, nodes + 10)
        if o.observed_duration + span * o.noise_sd > 0:
            lin = np.linspace(
                max(o.observed_duration - span * o.noise_sd, lo * 1e-6),
                o.observed_duration + span * o.noise_sd,
                nodes,
            )
            d = np.sort(np.concatenate([d, lin[lin > 0]]))
        f = stats.norm.pdf(o.observed_duration, loc=d, scale=o.noise_sd)
        f = f * stats.lognorm.pdf(d, s=theta.sigma, scale=math.exp(theta.mu))
        total += float(np.log(np.trapezoid(f, d)))
    return total


def oracle_at_or_below_zero(theta: LognormalParams, record) -> float:
    """log marginal likelihood of one observation O <= 0 by a trapezoid
    in y = ln d, where O - e^y loses nothing to rounding. Zooming scans of
    the integrand's log find its peak, which lies below mu; 40001 nodes
    then cover 40 sigma below it and 50 curvature scales either side."""
    mu, sigma = theta.mu, theta.sigma
    observed, noise = record.observed_duration, record.noise_sd

    def log_g(y):
        z = (observed - np.exp(y)) / noise
        return -0.5 * z * z - 0.5 * ((y - mu) / sigma) ** 2

    lo, hi = min(mu - 40.0 * sigma, math.log(noise) - 40.0), mu
    for _ in range(8):
        y = np.linspace(lo, hi, 2001)
        peak = y[np.argmax(log_g(y))]
        lo, hi = peak - 2.0 * (y[1] - y[0]), peak + 2.0 * (y[1] - y[0])
    d = math.exp(peak)
    curvature = (2.0 * d - observed) * d / noise / noise + 1.0 / sigma**2
    width = 1.0 / math.sqrt(curvature)
    y = np.linspace(peak - 40.0 * sigma - 50.0 * width, peak + 50.0 * width, 40001)
    total = logsumexp(log_g(y)) + math.log(y[1] - y[0])
    return total - math.log(noise) - math.log(sigma) - math.log(2.0 * math.pi)


# ---------------------------------------------------------------- likelihood


def test_empty_observations_give_zero():
    theta = LognormalParams(2.0, 0.3)
    assert marginal_log_likelihood(theta, []) == 0.0


def test_vanishing_noise_collapses_to_lognormal_density():
    theta = LognormalParams(math.log(10.0) - 0.045, 0.3)
    value = marginal_log_likelihood(theta, [ObservationRecord(0, 10.0, 1e-3)])
    assert abs(value - log_pdf(theta, 10.0)) <= 0.01


def test_theta_mismatch_lowers_likelihood_by_both_routes():
    matched = LognormalParams(math.log(10.0) - 0.045, 0.3)
    mismatched = LognormalParams(math.log(100.0), 0.3)
    obs = [ObservationRecord(0, 10.0, 0.5)]
    impl_m = marginal_log_likelihood(matched, obs)
    impl_x = marginal_log_likelihood(mismatched, obs)
    assert impl_m > impl_x
    oracle_m = oracle_mll(matched, obs)
    oracle_x = oracle_mll(mismatched, obs)
    assert oracle_m > oracle_x
    assert impl_m == pytest.approx(oracle_m, abs=1e-5)
    assert impl_x == pytest.approx(oracle_x, abs=1e-5)


def test_quadrature_agrees_with_independent_integrator():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = LognormalParams(
            float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.1, 1.0))
        )
        rec = ObservationRecord(
            0, float(rng.uniform(1.0, 25.0)), float(rng.uniform(0.05, 2.0))
        )
        a = marginal_log_likelihood(theta, [rec])
        b = oracle_mll(theta, [rec])
        assert a == pytest.approx(b, abs=1e-5)


@pytest.mark.parametrize("sigma,k", [(0.7, 2.0), (0.85, 2.5), (1.0, 3.0)])
def test_second_local_maximum_gets_its_own_node_set(sigma, k):
    # O 8 sigma above mu and O / noise_sd = 2 sqrt(2) k / sigma: the
    # integrand has a local maximum near ln O and another near mu, of
    # comparable mass. One node set at the higher one was off by 2e-3 to
    # 8e-3 here.
    theta = LognormalParams(0.0, sigma)
    observed = math.exp(8.0 * sigma)
    record = ObservationRecord(0, observed, observed * sigma / (2.0 * math.sqrt(2.0) * k))
    expected = oracle_mll(theta, [record], span=12.0, nodes=20000)
    value = marginal_log_likelihood(theta, [record])
    assert value == pytest.approx(expected, rel=1e-4)


def test_likelihood_is_permutation_invariant_sum():
    theta = LognormalParams(2.3, 0.4)
    obs = [
        ObservationRecord(0, 9.0, 0.5),
        ObservationRecord(0, 11.5, 0.3),
        ObservationRecord(0, 14.0, 0.8),
    ]
    assert marginal_log_likelihood(theta, obs) == marginal_log_likelihood(
        theta, obs[::-1]
    )


def test_mixed_activities_rejected():
    theta = LognormalParams(2.0, 0.3)
    obs = [ObservationRecord(0, 9.0, 0.5), ObservationRecord(1, 9.0, 0.5)]
    with pytest.raises(MixedActivities):
        marginal_log_likelihood(theta, obs)
    with pytest.raises(MixedActivities):
        map_update(PosteriorState(theta), obs)


@pytest.mark.parametrize("noise_sd", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_noise_sd_rejected(noise_sd):
    theta = LognormalParams(2.0, 0.3)
    with pytest.raises(ValueError):
        marginal_log_likelihood(theta, [ObservationRecord(0, 9.0, noise_sd)])


def test_non_finite_observation_rejected():
    theta = LognormalParams(2.0, 0.3)
    with pytest.raises(ValueError):
        marginal_log_likelihood(theta, [ObservationRecord(0, float("nan"), 0.5)])


def test_quadrature_span_underflowing_to_zero_is_rejected():
    # exp(mu - 6 sigma) == 0: theta lies outside the box that the MAP
    # objective searches, where |mu| + 6 sigma <= 700.
    with pytest.raises(ValueError):
        marginal_log_likelihood(
            LognormalParams(-800.0, 1.0), [ObservationRecord(0, 1.0, 0.5)]
        )


def _half_range_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule for integral_0^inf e^(-u^2) f(u) du: the
    three-term recurrence of the weight's orthonormal polynomials by the
    Stieltjes procedure on a 100-point Gauss-Legendre grid over [0, 13]
    (e^-169 ends the weight), then the eigen-decomposition of its Jacobi
    matrix (Golub & Welsch 1969)."""
    x, w = np.polynomial.legendre.leggauss(100)
    x = 6.5 * (x + 1.0)
    w = 6.5 * w * np.exp(-x * x)
    alpha, beta = np.empty(n), np.zeros(n)
    p, p_prev = np.full_like(x, 1.0 / math.sqrt(w.sum())), np.zeros_like(x)
    for k in range(n):
        alpha[k] = np.sum(w * x * p * p)
        q = (x - alpha[k]) * p - (math.sqrt(beta[k]) * p_prev if k else 0.0)
        if k + 1 < n:
            beta[k + 1] = np.sum(w * q * q)
            p, p_prev = q / math.sqrt(beta[k + 1]), p
    off = np.sqrt(beta[1:])
    nodes, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 0.5 * math.sqrt(math.pi) * vectors[0] ** 2


def test_half_range_rule_is_the_gauss_rule_of_its_weight():
    nodes, weights = _half_range_hermite(16)
    np.testing.assert_allclose(bayes._HALF_NODES, nodes, rtol=1e-13)
    np.testing.assert_allclose(bayes._HALF_WEIGHTS, weights, rtol=1e-9)
    # a 16-point Gauss rule integrates u^k e^(-u^2) exactly for k < 32
    for k in range(32):
        moment = math.gamma((k + 1) / 2) / 2
        assert np.sum(bayes._HALF_WEIGHTS * bayes._HALF_NODES**k) == pytest.approx(
            moment, rel=1e-13
        )


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


_SIGMAS = st.floats(math.log(SIGMA_MIN), 2.0).map(math.exp)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-2.0, 4.0),
    _SIGMAS,
    st.one_of(
        st.floats(-5.0, 5.0).map(lambda z: ("z", z)),
        st.floats(-100.0, 0.0).map(lambda observed: ("observed", observed)),
    ),
)
def test_vanishing_noise_tends_to_the_lognormal_density(mu, sigma, drawn):
    # A positive observation at z-score z, whose likelihood tends to the
    # lognormal density there; or one at or below zero, whose likelihood
    # may underflow to -inf but is never NaN or +inf.
    theta = LognormalParams(mu, sigma)
    kind, x = drawn
    for exponent in (3, 6, 12, 24, 50, 100, 200, 300):
        noise = 10.0**-exponent
        if kind == "observed":
            value = marginal_log_likelihood(theta, [ObservationRecord(0, x, noise)])
            assert not math.isnan(value) and value != math.inf
            continue
        observed = math.exp(mu + sigma * x)
        value = marginal_log_likelihood(theta, [ObservationRecord(0, observed, noise)])
        limit = log_pdf(theta, observed)
        # the leading correction is of order (noise / O)^2 (1 + 1 / sigma)^2
        r = noise / observed * (1.0 + 1.0 / sigma)
        bound = 1e-10 * max(1.0, abs(limit)) + 10.0 * r * r * (1.0 + x * x) ** 2
        assert abs(value - limit) <= bound


@st.composite
def _edge_case(draw):
    """theta and one observation at an edge: an observation at or below
    zero, or far in either tail of the lognormal; noise_sd from 1e-300 to
    1e200 or near the duration's scale; sigma from SIGMA_MIN to e^2; or
    the bimodal case, O / noise_sd > 2 sqrt(2) / sigma with ln O 2 to 8
    sigma above mu."""
    mu = draw(st.floats(-3.0, 5.0))
    sigma = draw(_SIGMAS)
    kind = draw(st.sampled_from(["nonpositive", "tail", "bimodal"]))
    noise = draw(
        st.one_of(
            _log_uniform(-300.0, 200.0),
            _log_uniform(-3.0, 1.0).map(lambda f: f * math.exp(mu)),
        )
    )
    if kind == "nonpositive":
        observed = draw(st.one_of(st.just(0.0), _log_uniform(-3.0, 2.0).map(lambda v: -v)))
    elif kind == "tail":
        side = draw(st.sampled_from([-1.0, 1.0]))
        observed = math.exp(mu + side * sigma * draw(st.floats(3.0, 30.0)))
    else:
        observed = math.exp(mu + sigma * draw(st.floats(2.0, 8.0)))
        noise = observed * sigma / (2.0 * math.sqrt(2.0) * draw(st.floats(1.0, 30.0)))
    return LognormalParams(mu, sigma), ObservationRecord(0, observed, noise)


# An observation at or below zero is checked against the log-space
# trapezoid. oracle_mll is trusted where its linear nodes across
# O +- 8 noise_sd are distinct floats (noise_sd > 1e-9 |O|) and a second
# run on twice the nodes and a 12-sigma span agrees with it to
# _ORACLE_AGREE. Against either, the quadrature must agree to
# _edge_tolerance; all are relative to max(1, |value|). With sigma <= 1
# and a concave integrand (O <= 0, or O / noise_sd <= 2 sqrt(2) / sigma)
# the largest error seen in 600 such cases was 3e-10. The rest is harder:
# where the integrand has two local maxima of comparable mass, a scan gave
# up to 1.5e-4 for sigma <= 1 and 6e-4 above it, and a wide prior under a
# broad observation factor gave 1.3e-3 (sigma = 5.8, O = -0.01,
# noise_sd = 100 e^mu).
_ORACLE_AGREE = 1e-8


def _edge_tolerance(theta: LognormalParams, record) -> float:
    observed, noise = record.observed_duration, record.noise_sd
    concave = observed <= 0 or observed / noise * theta.sigma <= 2.0 * math.sqrt(2.0)
    return 1e-6 if theta.sigma <= 1.0 and concave else 5e-3


@settings(max_examples=300, deadline=None)
@given(_edge_case())
def test_quadrature_at_the_edges_is_never_nan_and_matches_the_oracle(case):
    theta, record = case
    value = marginal_log_likelihood(theta, [record])
    assert not math.isnan(value) and value != math.inf
    if record.observed_duration <= 0:
        with np.errstate(over="ignore", under="ignore"):
            expected = oracle_at_or_below_zero(theta, record)
        if math.isfinite(expected):
            tolerance = _edge_tolerance(theta, record) * max(1.0, abs(expected))
            assert abs(value - expected) <= tolerance
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        oracle = oracle_mll(theta, [record])
        wider = oracle_mll(theta, [record], span=12.0, nodes=2560)
    scale = max(1.0, abs(oracle))
    resolved = record.noise_sd > 1e-9 * abs(record.observed_duration)
    if resolved and math.isfinite(oracle) and abs(wider - oracle) <= _ORACLE_AGREE * scale:
        assert abs(value - oracle) <= _edge_tolerance(theta, record) * scale




# ----------------------------------------------------------------- log_prior


def test_log_prior_peaks_at_center_and_drops_half_per_tau():
    prior = PosteriorState(LognormalParams(2.0, 0.3), tau_mu=0.5, tau_log_sigma=0.5)
    center = log_prior(LognormalParams(2.0, 0.3), prior)
    assert center > log_prior(LognormalParams(2.4, 0.3), prior)
    assert center > log_prior(LognormalParams(2.0, 0.5), prior)
    one_tau = log_prior(LognormalParams(2.5, 0.3), prior)
    assert center - one_tau == pytest.approx(0.5)


def test_vague_prior_is_flat_in_mu():
    prior = PosteriorState(LognormalParams(2.0, 0.3), tau_mu=1e6, tau_log_sigma=0.5)
    a = log_prior(LognormalParams(1.0, 0.3), prior)
    b = log_prior(LognormalParams(3.0, 0.3), prior)
    assert abs(a - b) < 1e-6


# ---------------------------------------------------------------- map_update


def test_empty_update_is_fixpoint():
    state = PosteriorState(from_baseline(10.0, 0.3))
    after = map_update(state, [])
    assert after.params == state.params
    assert after.observation_count == 0


def test_repeated_observations_pull_to_consensus_with_vague_prior():
    # 50 measurements of one duration at 14 combine into one record at 14
    # with noise_sd 0.1 / sqrt(50); the vague location prior lets the
    # median go there, and sigma settles where the prior on ln sigma
    # balances the lognormal density's -ln sigma (about 0.23), so the mean
    # is about 14.4.
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=10.0)
    obs = [ObservationRecord(0, 14.0, 0.1) for _ in range(50)]
    post = map_update(state, obs)
    assert math.exp(post.params.mu) == pytest.approx(14.0, rel=1e-3)
    assert 13.5 <= expected_duration(post.params) <= 14.5
    assert achieved(post, obs, state) >= grid_best(obs, state) - 1e-3


def test_tight_prior_dominates_single_observation():
    prior = LognormalParams(math.log(10.0) - 0.045, 0.3)
    state = PosteriorState(prior, tau_mu=0.01)
    obs = [ObservationRecord(0, 14.0, 1.0)]
    post = map_update(state, obs)
    assert expected_duration(post.params) == pytest.approx(10.0, rel=0.02)
    assert achieved(post, obs, state) >= grid_best(obs, state) - 1e-3


def test_grid_fallback_recovers_when_newton_starts_at_minus_inf(monkeypatch):
    # The start lies outside the mu box, so the objective is -inf there and
    # Newton has nothing to ascend; the 41 x 41 grid around it reaches back
    # inside the box.
    calls = []
    grid_argmax = bayes._grid_argmax

    def counted(*args):
        calls.append(args)
        return grid_argmax(*args)

    monkeypatch.setattr(bayes, "_grid_argmax", counted)
    state = PosteriorState(LognormalParams(202.0, 0.5))
    observed = math.exp(199.5)
    post = map_update(state, [ObservationRecord(0, observed, 0.1 * observed)])
    assert len(calls) == 1
    assert math.isfinite(post.params.mu) and math.isfinite(post.params.sigma)
    assert abs(post.params.mu) <= 200.0
    assert post.observation_count == 1


@pytest.mark.parametrize("cap", [1, 4])
def test_capped_newton_keeps_the_grid_point_only_if_it_is_better(monkeypatch, cap):
    # A Newton run stopped by its iteration cap, at a finite point, is
    # checked against the grid: one iteration leaves it at the start, which
    # the grid beats; four take it past the grid's best point (six
    # converge).
    monkeypatch.setattr(bayes, "_NEWTON_MAXITER", cap)
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=0.3, tau_log_sigma=0.8)
    obs = (ObservationRecord(0, 12.0, 0.5),)
    problems = bayes._Problems([(state, obs)])
    xs, values, converged = bayes._newton(problems)
    assert not converged[0] and math.isfinite(values[0])
    post = map_update(state, obs)
    grid_mu, grid_log_sigma, grid_value = bayes._grid_argmax(problems, 0)
    if cap == 1:
        assert grid_value > values[0]
        assert (post.params.mu, post.params.sigma) == (grid_mu, math.exp(grid_log_sigma))
    else:
        assert grid_value < values[0]
        assert (post.params.mu, post.params.sigma) == (xs[0, 0], math.exp(xs[0, 1]))


def _one_point_objective(problems):
    def objective(mu, log_sigma, obs, state):
        return problems.objectives(np.array([0]), np.array([[mu, log_sigma]]))[0]

    return objective


@pytest.mark.parametrize("copies", [4096, 7])
def test_grid_argmax_matches_a_loop_over_single_points(copies):
    # The fallback case of the test above: only part of the grid lies
    # inside the mu box. Its points share one quadrature call. The
    # activity is measured `copies` times, so the grid searches the one
    # combined record, its noise_sd shrunk by sqrt(copies).
    state = PosteriorState(LognormalParams(202.0, 0.5))
    observed = math.exp(199.5)
    obs = (ObservationRecord(0, observed, 0.1 * observed),) * copies
    problems = bayes._Problems([(state, obs)])
    assert problems.noise[0] == pytest.approx(0.1 * observed / math.sqrt(copies))
    x0 = problems.x0[0]
    expected = reference_grid_argmax(x0, obs, state, _one_point_objective(problems))
    assert math.isfinite(expected[2])
    assert bayes._grid_argmax(problems, 0) == expected


def test_grid_argmax_keeps_the_first_of_tied_points_and_never_nan(monkeypatch):
    # Values on a few levels, so that the maximum ties, and NaN on level
    # -1 and wherever ln sigma > 0: a NaN must lose to any number.
    def value(mu, log_sigma):
        level = -abs(round(2.0 * (mu - 1.0)))
        return math.nan if log_sigma > 0.0 or level == -1 else float(level)

    def objectives(self, ids, x):
        return [value(mu, log_sigma) for mu, log_sigma in x.tolist()]

    monkeypatch.setattr(bayes._Problems, "objectives", objectives)
    state = PosteriorState(LognormalParams(1.0, 0.5))
    problems = bayes._Problems([(state, (ObservationRecord(0, 3.0, 0.5),))])
    x0 = problems.x0[0]
    got = bayes._grid_argmax(problems, 0)
    assert got == reference_grid_argmax(
        x0, None, state, lambda mu, log_sigma, obs, state: value(mu, log_sigma)
    )
    # the lowest mu on the top level, at the lowest ln sigma
    assert got[2] == 0.0 and got[0] < x0[0] and got[1] == math.log(1e-3)

    monkeypatch.setattr(
        bayes._Problems, "objectives", lambda self, ids, x: [math.nan] * len(x)
    )
    assert bayes._grid_argmax(problems, 0) == (float(x0[0]), float(x0[1]), -math.inf)


@st.composite
def _update_pair(draw):
    """A (state, records) pair of one of four kinds: a plain update; tiny
    or huge noise, durations at or below zero, and durations near the
    float limit, whose mean must not overflow; a start outside the mu
    box, where the objective is -inf and the grid fallback runs; and a
    near-flat objective (vague prior, huge noise) whose values tie or
    differ in the last bits."""
    kind = draw(st.sampled_from(["plain", "extreme", "outside", "flat"]))
    if kind == "outside":
        mu0 = draw(st.floats(200.5, 204.0))
        state = PosteriorState(LognormalParams(mu0, 0.5))
        center = math.exp(mu0 - 2.5)
        values = st.floats(0.5, 2.0).map(lambda f: f * center)
        noise = st.just(0.1 * center)
    else:
        mu0 = draw(st.floats(-2.0, 4.0))
        sigma0 = math.exp(draw(st.floats(-3.0, 0.5)))
        taus = (1e300, 1e300) if kind == "flat" else draw(
            st.tuples(st.sampled_from([0.01, 0.3, 10.0]), st.sampled_from([0.5, 0.8]))
        )
        state = PosteriorState(LognormalParams(mu0, sigma0), 0, *taus)
        typical = math.exp(mu0)
        values = st.floats(0.2, 3.0).map(lambda f: f * typical)
        noise = st.floats(0.02, 1.0).map(lambda f: f * typical)
        if kind == "extreme":
            values = st.one_of(
                values, st.floats(-5.0, 0.0), st.sampled_from([1e308, 1.5e308])
            )
            noise = st.one_of(noise, st.sampled_from([1e-300, 1e-9, 1e9, 1e200]))
        elif kind == "flat":
            noise = st.sampled_from([1e150, 1e200])
    count = draw(st.integers(1, 4))
    records = [
        ObservationRecord(0, draw(values), draw(noise)) for _ in range(count)
    ]
    return state, records


@settings(max_examples=20, deadline=None)
@given(_update_pair())
@example(
    (
        PosteriorState(LognormalParams(0.0, math.exp(-2.0)), 0, 10.0, 0.5),
        [
            ObservationRecord(0, 0.25, 0.125),
            ObservationRecord(0, 1.0, 1.0),
            ObservationRecord(0, 2.5, 0.5),
        ],
    )
)
@example(
    (
        PosteriorState(LognormalParams(0.0, 1.0), 0, 10.0, 0.5),
        [
            ObservationRecord(0, 2.0, 0.625),
            ObservationRecord(0, -1.0, 0.0234375),
            ObservationRecord(0, 1.0, 1.0),
        ],
    )
)
def test_newton_reaches_scipy_nelder_mead_on_the_same_objective(pair):
    # The gate that let Newton replace Nelder-Mead: the objective at the
    # MAP point is never worse than scipy's Nelder-Mead finds, less 1e-6
    # relative to max(1, |objective|) (objectives reach 1e18 in
    # magnitude, where 1e-6 is below one ulp). Both examples had two local
    # maxima in (mu, ln sigma) while each record marginalized its own
    # duration, and Newton from the prior's center missed the higher one
    # in the second; as one combined record they have one.
    state, records = pair
    try:
        post = map_update(state, records)
    except OptimizationFailed:
        return
    reference = reference_nelder_mead(state, tuple(records))
    assume(math.isfinite(reference.fun))
    value = marginal_log_likelihood(post.params, records) + log_prior(post.params, state)
    assert value >= -reference.fun - 1e-6 * max(1.0, abs(reference.fun))


@settings(max_examples=8, deadline=None)
@given(st.lists(_update_pair(), min_size=2, max_size=8), st.randoms())
def test_map_update_does_not_depend_on_its_batch(pairs, random):
    alone = []
    for pair in pairs:
        try:
            alone.append((pair, map_update(*pair)))
        except OptimizationFailed:
            pass
    shuffled = list(alone)
    random.shuffle(shuffled)
    together = map_updates([pair for pair, _ in alone])
    assert together == [state for _, state in alone]
    assert map_updates([pair for pair, _ in shuffled]) == [state for _, state in shuffled]


def test_optimizer_beats_grid_on_random_cases():
    rng = np.random.default_rng(19)
    for _ in range(3):
        state = PosteriorState(from_baseline(float(rng.uniform(6.0, 18.0)), 0.3))
        obs = [
            ObservationRecord(
                0, float(rng.uniform(5.0, 28.0)), float(rng.uniform(0.2, 1.5))
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        post = map_update(state, obs)
        assert achieved(post, obs, state) >= grid_best(obs, state, n=60) - 1e-3


PULL_ABOVE = [
    ([11.0, 13.0, 16.0, 20.0, 26.0], 0.5),
    ([10.5, 14.0, 22.0], 0.5),
    ([12.0, 18.0, 30.0], 1.0),
    ([28.0], 2.0),
    ([11.0, 15.0, 24.0], 1.0),
]
PULL_BELOW = [
    ([9.0, 7.5, 6.0], 0.4),
    ([8.0], 0.8),
    ([5.0, 6.5, 8.5, 4.5], 0.5),
    ([9.5, 9.0, 8.0, 7.0, 6.0], 0.3),
]


@pytest.mark.parametrize("tau_mu", [0.5, 1.0])
@pytest.mark.parametrize("values,noise_sd", PULL_ABOVE)
def test_posterior_pulled_between_prior_and_sample_mean_from_above(
    tau_mu, values, noise_sd
):
    # The median moves from the prior's toward the measured mean and stops
    # short of it; the mean exp(mu + sigma^2 / 2) may pass the measured
    # mean by the sigma^2 / 2 term (by 0.026 for [10.5, 14, 22] at
    # tau_mu 1), so it is only bounded below by the prior mean.
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=tau_mu)
    post = map_update(state, [ObservationRecord(0, v, noise_sd) for v in values])
    assert state.params.mu <= post.params.mu <= math.log(np.mean(values))
    assert expected_duration(post.params) >= 10.0 - 1e-9


@pytest.mark.parametrize("tau_mu", [0.5, 1.0])
@pytest.mark.parametrize("values,noise_sd", PULL_BELOW)
def test_posterior_pulled_between_prior_and_sample_mean_from_below(
    tau_mu, values, noise_sd
):
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=tau_mu)
    post = map_update(state, [ObservationRecord(0, v, noise_sd) for v in values])
    e = expected_duration(post.params)
    assert float(np.mean(values)) - 1e-9 <= e <= 10.0 + 1e-9


def test_estimate_error_shrinks_with_more_observations():
    # Measurements of one realized duration tend to one exact measurement
    # of it, so the posterior tends to the one that exact measurement
    # gives (whose mean is not d_true: sigma stays near 0.24).
    d_true, noise = 12.0, 0.25
    start = PosteriorState(from_baseline(8.0, 0.3))
    exact = map_update(start, [ObservationRecord(0, d_true, 1e-9)])
    checkpoints = (5, 20, 80)
    errors = {k: [] for k in checkpoints}
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        state = start
        consumed = 0
        for k in checkpoints:
            batch = [
                ObservationRecord(0, float(d_true + rng.normal(0.0, noise)), noise)
                for _ in range(k - consumed)
            ]
            state = map_update(state, batch)
            consumed = k
            errors[k].append(
                abs(expected_duration(state.params) - expected_duration(exact.params))
            )
    medians = [float(np.median(errors[k])) for k in checkpoints]
    assert medians[0] >= medians[1] >= medians[2]


def test_batch_permutation_gives_identical_params():
    state = PosteriorState(from_baseline(9.0, 0.3))
    obs = [
        ObservationRecord(0, 11.0, 0.4),
        ObservationRecord(0, 7.5, 0.6),
        ObservationRecord(0, 13.2, 0.3),
        ObservationRecord(0, 10.1, 0.5),
    ]
    a = map_update(state, obs)
    b = map_update(state, [obs[2], obs[0], obs[3], obs[1]])
    assert a.params == b.params


def test_observation_count_accumulates_across_updates():
    state = PosteriorState(from_baseline(9.0, 0.3))
    state = map_update(state, [ObservationRecord(0, 10.0, 0.5)] * 3)
    assert state.observation_count == 3
    state = map_update(state, [ObservationRecord(0, 11.0, 0.5)] * 2)
    assert state.observation_count == 5


def test_update_keeps_the_initial_prior_and_combines_the_evidence():
    state = PosteriorState(from_baseline(9.0, 0.3), tau_mu=0.4, tau_log_sigma=0.7)
    record = ObservationRecord(0, 12.0, 0.5)
    post = map_update(state, [record])
    assert (post.prior, post.tau_mu, post.tau_log_sigma) == (state.params, 0.4, 0.7)
    assert post.evidence == record
    assert post.params.mu != state.params.mu
    mu, sigma = state.params.mu, state.params.sigma
    nearby = [(mu + 1e-3, sigma), (mu - 1e-3, sigma), (mu, sigma * 1.001), (mu, sigma / 1.001)]
    assert all(
        log_prior(state.params, post) > log_prior(LognormalParams(m, s), post)
        for m, s in nearby
    )
    again = map_update(post, [ObservationRecord(0, 13.0, 0.5)])
    assert again.prior == state.params
    assert again.evidence == ObservationRecord(0, 12.5, 0.5 / math.sqrt(2.0))


def test_a_lone_record_is_its_own_combination():
    for record in [
        ObservationRecord(3, 12.0, 0.5),
        ObservationRecord(3, -0.0, 1e-300),
        ObservationRecord(3, 5e-324, 7.0),
        ObservationRecord(3, -1.7976931348623157e308, 1e200),
    ]:
        assert bayes._combine([record]) == record


def test_combined_mean_neither_overflows_nor_depends_on_order():
    big = [ObservationRecord(2, 1e308, 1.0), ObservationRecord(2, 1.5e308, 1.0)]
    assert bayes._combine(big).observed_duration == pytest.approx(1.25e308, rel=1e-15)
    assert bayes._combine(big[::-1]) == bayes._combine(big)
    top = 1.7976931348623157e308
    extreme = [ObservationRecord(2, top, s) for s in (1.0, 1.1, 1.3, 0.7, 2.9)]
    assert bayes._combine(extreme).observed_duration == top
    spread = [ObservationRecord(2, -top, 1.0), ObservationRecord(2, top, 3.0)]
    assert -top < bayes._combine(spread).observed_duration < 0.0
    with pytest.raises(OptimizationFailed):
        map_update(PosteriorState(from_baseline(8.0, 0.3)), big)
    # 5e-324 / sqrt(4) rounds to 0; the combined noise_sd stays positive
    finest = bayes._combine([ObservationRecord(2, 6.0, 5e-324)] * 4)
    assert finest == ObservationRecord(2, 6.0, 5e-324)


# Sequential and batch updates solve objectives whose combined records
# differ in the last bits. Each Newton run stops within its 1e-9 step
# tolerance of the fixed point of its central differences, but rounding
# in the stencil values (step 1e-4) moves that fixed point: over 6,000
# random cases of 1-6 records the two routes differed by at most 2.3e-8
# in mu or ln sigma. The tolerance is 1e-7.
_SEQUENTIAL_TOL = 1e-7


@settings(max_examples=30, deadline=None)
@given(
    st.floats(-2.0, 4.0),
    st.floats(-3.0, 0.5),
    st.tuples(st.sampled_from([0.01, 0.3, 10.0]), st.sampled_from([0.5, 0.8])),
    st.lists(st.tuples(st.floats(0.2, 3.0), st.floats(0.02, 1.0)), min_size=1, max_size=6),
    st.randoms(),
)
def test_sequential_updates_equal_one_batch_in_any_order(
    mu0, log_sigma0, taus, scaled, random
):
    typical = math.exp(mu0)
    state = PosteriorState(LognormalParams(mu0, math.exp(log_sigma0)), 0, *taus)
    records = [ObservationRecord(0, v * typical, s * typical) for v, s in scaled]
    batch = map_update(state, records)
    random.shuffle(records)
    assert map_update(state, records).params == batch.params
    sequential = state
    for record in records:
        sequential = map_update(sequential, [record])
    assert sequential.observation_count == batch.observation_count == len(records)
    assert sequential.evidence.observed_duration == pytest.approx(
        batch.evidence.observed_duration, rel=1e-14
    )
    assert sequential.evidence.noise_sd == pytest.approx(batch.evidence.noise_sd, rel=1e-14)
    assert abs(sequential.params.mu - batch.params.mu) <= _SEQUENTIAL_TOL
    log_ratio = math.log(sequential.params.sigma / batch.params.sigma)
    assert abs(log_ratio) <= _SEQUENTIAL_TOL


def test_measuring_one_duration_more_often_keeps_sigma_in_a_band():
    # One realized duration, 12, measured k times: the measurements pin
    # the duration, not its spread across realizations, so sigma stays
    # in [0.16, 0.18] (0.175 at k = 1, about 0.169 as k grows). Each
    # record marginalizing its own duration gave 0.175, 0.102, 0.048 and
    # 0.021 in one batch.
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=0.3, tau_log_sigma=0.8)
    record = ObservationRecord(0, 12.0, 0.5)
    for k in (1, 2, 5, 20):
        batch = map_update(state, [record] * k)
        assert 0.16 <= batch.params.sigma <= 0.18
        sequential = state
        for _ in range(k):
            sequential = map_update(sequential, [record])
        assert 0.16 <= sequential.params.sigma <= 0.18


# ------------------------------------------------------------- text parsing


def test_parse_observation_text_valid():
    text = "# site log\n\n0 10.5 0.5\n3 7   0.25\n\n# trailing comment\n0 12.0 1.0\n"
    records = parse_observation_text(text)
    assert records == [
        (3, ObservationRecord(0, 10.5, 0.5)),
        (4, ObservationRecord(3, 7.0, 0.25)),
        (7, ObservationRecord(0, 12.0, 1.0)),
    ]
    assert parse_observation_text("") == []
    assert parse_observation_text("# only comments\n\n") == []


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0 10.5\n", 1),
        ("0 10.5 0.5 9\n", 1),
        ("0 10.5 0.5\nzero 10.5 0.5\n", 2),
        ("0 ten 0.5\n", 1),
        ("-1 10.5 0.5\n", 1),
        ("0 10.5 0\n", 1),
        ("0 10.5 -0.5\n", 1),
        ("0 10.5 0.5\n\n1 nan 0.5\n", 3),
        ("1 inf 0.5\n", 1),
    ],
)
def test_parse_observation_text_errors_name_the_line(text, lineno):
    with pytest.raises(ObservationFormatError, match=f"line {lineno}"):
        parse_observation_text(text)
