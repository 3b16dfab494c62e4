"""Recursive MAP updating: likelihood quadrature, optimizer, text parsing.

Two independent oracle routes are used here and must stay separate:
  - the marginal likelihood integral is checked against a high-node
    scipy-based trapezoid integrator (different densities, wider span);
  - the optimizer is checked against an exhaustive 2-D grid search that
    maximizes the same objective.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import logsumexp

from conftest import log_pdf, reference_quadrature
from stoched import bayes
from stoched.bayes import (
    ObservationRecord,
    PosteriorState,
    log_prior,
    map_update,
    marginal_log_likelihood,
    parse_observation_text,
)
from stoched.durations import LognormalParams, expected_duration, from_baseline
from stoched.errors import MixedActivities, ObservationFormatError


def oracle_mll(theta: LognormalParams, obs) -> float:
    """Independent high-node trapezoid evaluation of the marginal
    log-likelihood, built on scipy densities and an 8-sigma span."""
    total = 0.0
    for o in obs:
        lo = math.exp(theta.mu - 8 * theta.sigma)
        hi = math.exp(theta.mu + 8 * theta.sigma)
        d = np.geomspace(lo, hi, 1290)
        if o.observed_duration + 8 * o.noise_sd > 0:
            lin = np.linspace(
                max(o.observed_duration - 8 * o.noise_sd, lo * 1e-6),
                o.observed_duration + 8 * o.noise_sd,
                1280,
            )
            d = np.sort(np.concatenate([d, lin[lin > 0]]))
        f = stats.norm.pdf(o.observed_duration, loc=d, scale=o.noise_sd)
        f = f * stats.lognorm.pdf(d, s=theta.sigma, scale=math.exp(theta.mu))
        total += math.log(np.trapezoid(f, d))
    return total


def grid_best(obs, prior: PosteriorState, n: int = 120) -> float:
    """Best objective value found by exhaustive grid search over
    mu in [ln 5, ln 30] x sigma in [1e-3, 1.5]."""
    best = -math.inf
    for mu in np.linspace(math.log(5.0), math.log(30.0), n):
        for sigma in np.linspace(1e-3, 1.5, n):
            theta = LognormalParams(float(mu), float(sigma))
            value = marginal_log_likelihood(theta, obs) + log_prior(theta, prior)
            best = max(best, value)
    return best


def achieved(state: PosteriorState, obs, prior: PosteriorState) -> float:
    return marginal_log_likelihood(state.params, obs) + log_prior(state.params, prior)


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
    assert impl_m == pytest.approx(oracle_m, abs=0.05)
    assert impl_x == pytest.approx(oracle_x, abs=0.05)


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
        assert a == pytest.approx(b, abs=0.05)


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
    # exp(mu - 6 sigma) == 0 leaves no log-spaced nodes; the span is
    # rejected with np.geomspace's error.
    with pytest.raises(ValueError):
        marginal_log_likelihood(
            LognormalParams(-800.0, 1.0), [ObservationRecord(0, 1.0, 0.5)]
        )


# Rows of logsumexp input: finite terms, -inf terms (zero trapezoid
# weights), +inf, nan of either sign (their bits pin scipy's fallback for
# non-finite rows), and values drawn from a short list so that row maxima
# tie. Whole rows can be blanked to -inf.
_LSE_TERMS = st.one_of(
    st.floats(-800.0, 800.0),
    st.sampled_from([-math.inf, math.inf, math.nan, -math.nan, -700.0, 0.0, 1.5]),
)


@st.composite
def _lse_rows(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([1, 2, 9, 64, 129]))
    a = draw(arrays(np.float64, (rows, cols), elements=_LSE_TERMS))
    for r in range(rows):
        if cols > 1 and draw(st.booleans()):  # tie the row maximum
            a[r, draw(st.integers(0, cols - 1))] = a[r].max()
    blank = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    a[np.array(blank)] = -math.inf
    return a


@settings(max_examples=300, deadline=None)
@given(_lse_rows())
def test_logsumexp_rows_matches_scipy_bit_for_bit(a):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = bayes._logsumexp_rows(a)
    assert got.tobytes() == logsumexp(a, axis=1).tobytes()


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_POSITIVE, _POSITIVE, st.booleans())
def test_geomspace_matches_numpy_bit_for_bit(a, b, same):
    lo, hi = (a, a) if same else (min(a, b), max(a, b))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        expected = np.geomspace(lo, hi, 65)
        got = bayes._geomspace(lo, hi)
    assert got.tobytes() == expected.tobytes()


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@st.composite
def _quadrature_case(draw):
    mu = draw(st.floats(-100.0, 100.0))
    sigma = math.exp(draw(st.floats(-30.0, 4.0)))
    mode = math.exp(mu - sigma * sigma)
    value = st.one_of(
        st.floats(-50.0, 50.0),
        _log_uniform(-300.0, 300.0),
        _log_uniform(-300.0, 300.0).map(lambda v: -v),
        st.just(mode),
        st.just(math.exp(mu)),
    )
    noise = st.one_of(_log_uniform(-300.0, 300.0), _log_uniform(-3.0, 1.0))
    m = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    noise_sd = np.array(draw(st.lists(noise, min_size=m, max_size=m)))
    return LognormalParams(mu, sigma), values, noise_sd


@settings(max_examples=400, deadline=None)
@given(_quadrature_case())
def test_quadrature_matches_library_built_reference_bit_for_bit(case):
    theta, values, noise = case
    got = bayes._per_observation_log_likelihood(theta, values, noise)
    assert got.tobytes() == reference_quadrature(theta, values, noise).tobytes()


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
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=10.0)
    obs = [ObservationRecord(0, 14.0, 0.1) for _ in range(50)]
    post = map_update(state, obs)
    assert 13.5 <= expected_duration(post.params) <= 14.5
    assert achieved(post, obs, state) >= grid_best(obs, state) - 1e-3


def test_tight_prior_dominates_single_observation():
    prior = LognormalParams(math.log(10.0) - 0.045, 0.3)
    state = PosteriorState(prior, tau_mu=0.01)
    obs = [ObservationRecord(0, 14.0, 1.0)]
    post = map_update(state, obs)
    assert expected_duration(post.params) == pytest.approx(10.0, rel=0.02)
    assert achieved(post, obs, state) >= grid_best(obs, state) - 1e-3


def test_grid_fallback_recovers_when_nelder_mead_sees_only_minus_inf(monkeypatch):
    # The start lies outside the mu box, so every Nelder-Mead probe is -inf;
    # the 41 x 41 grid around it reaches back inside the box.
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


def test_non_converged_nelder_mead_loses_to_the_grid_point(monkeypatch):
    # A simplex that stopped without converging, at a finite but poor
    # point, must not be taken as the MAP estimate.
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=0.3, tau_log_sigma=0.8)
    obs = [ObservationRecord(0, 12.0, 0.5)]
    poor = np.array([state.params.mu - 2.0, math.log(state.params.sigma)])
    poor_value = bayes._objective(float(poor[0]), float(poor[1]), obs, state)
    assert math.isfinite(poor_value)

    def stalled(fun, x0, **kwargs):
        return scipy.optimize.OptimizeResult(
            x=poor, fun=-poor_value, success=False, nit=500
        )

    monkeypatch.setattr(scipy.optimize, "minimize", stalled)
    post = map_update(state, obs)
    x0 = np.array([state.params.mu, math.log(state.params.sigma)])
    grid_mu, grid_log_sigma, grid_value = bayes._grid_argmax(x0, obs, state)
    assert grid_value > poor_value
    assert post.params.mu == grid_mu
    assert post.params.sigma == math.exp(grid_log_sigma)


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
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=tau_mu)
    post = map_update(state, [ObservationRecord(0, v, noise_sd) for v in values])
    e = expected_duration(post.params)
    assert 10.0 - 1e-9 <= e <= float(np.mean(values)) + 1e-9


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
    d_true, noise = 12.0, 0.25
    checkpoints = (5, 20, 80)
    errors = {k: [] for k in checkpoints}
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        state = PosteriorState(from_baseline(8.0, 0.3))
        consumed = 0
        for k in checkpoints:
            batch = [
                ObservationRecord(0, float(d_true + rng.normal(0.0, noise)), noise)
                for _ in range(k - consumed)
            ]
            state = map_update(state, batch)
            consumed = k
            errors[k].append(abs(expected_duration(state.params) - d_true))
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


def test_update_reanchors_prior_at_new_params():
    state = PosteriorState(from_baseline(9.0, 0.3), tau_mu=0.4, tau_log_sigma=0.7)
    post = map_update(state, [ObservationRecord(0, 12.0, 0.5)])
    assert post.tau_mu == 0.4
    assert post.tau_log_sigma == 0.7
    mu, sigma = post.params.mu, post.params.sigma
    nearby = [(mu + 1e-3, sigma), (mu - 1e-3, sigma), (mu, sigma * 1.001), (mu, sigma / 1.001)]
    assert all(
        log_prior(post.params, post) > log_prior(LognormalParams(m, s), post)
        for m, s in nearby
    )
    assert post.params.mu != state.params.mu


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
