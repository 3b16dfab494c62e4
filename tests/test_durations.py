"""Lognormal duration model: mean-preserving priors, densities, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from stoched.durations import (
    SIGMA_MIN,
    FrozenDuration,
    LognormalParams,
    expected_duration,
    from_baseline,
    is_frozen,
    log_pdf,
    priors_from_baselines,
)
from stoched.errors import ConfigError, NonPositiveBaseline
from stoched.rng import normals, stream_key


def test_prior_mean_equals_baseline_exactly():
    for d in (0.5, 1.0, 3.0, 8.0, 42.0):
        for sigma in (0.1, 0.3, 0.5, 1.2):
            p = from_baseline(d, sigma)
            assert p.mu == math.log(d) - 0.5 * sigma * sigma
            assert expected_duration(p) == pytest.approx(d, rel=1e-12)


def test_zero_baseline_freezes():
    p = from_baseline(0.0, 0.3)
    assert is_frozen(p)
    assert p == FrozenDuration(0.0)
    assert expected_duration(p) == 0.0


def test_negative_or_nonfinite_baseline_rejected():
    with pytest.raises(NonPositiveBaseline):
        from_baseline(-1.0, 0.3)
    with pytest.raises(NonPositiveBaseline):
        from_baseline(float("nan"), 0.3)
    with pytest.raises(NonPositiveBaseline):
        from_baseline(float("inf"), 0.3)


def test_sigma_floor():
    p = from_baseline(5.0, 0.0)
    assert p.sigma == SIGMA_MIN
    q = from_baseline(5.0, 1e-9)
    assert q.sigma == SIGMA_MIN


@given(st.floats())
def test_any_sigma_is_rejected_or_gives_finite_priors(sigma):
    # ln d spans about +-690 over these baselines; mu = ln d - sigma^2/2
    try:
        priors = priors_from_baselines([0.0, 1e-300, 4.0, 1e300], sigma)
    except ConfigError:
        assert not 0 <= sigma <= 1.34e154  # NaN, negative or sigma^2 > max float
        return
    for p in priors[1:]:
        assert math.isfinite(p.mu) and math.isfinite(p.sigma) and p.sigma > 0


def test_priors_from_baselines_mixes_frozen_and_lognormal():
    priors = priors_from_baselines([0.0, 4.0, 7.0, 0.0], 0.3)
    assert is_frozen(priors[0]) and is_frozen(priors[3])
    assert isinstance(priors[1], LognormalParams)
    assert expected_duration(priors[2]) == pytest.approx(7.0, rel=1e-12)


def test_log_pdf_matches_scipy_lognorm():
    rng = np.random.default_rng(5)
    for _ in range(30):
        mu = rng.uniform(-1.0, 3.0)
        sigma = rng.uniform(0.05, 1.5)
        x = rng.uniform(0.01, 40.0)
        ours = log_pdf(LognormalParams(mu, sigma), x)
        ref = stats.lognorm.logpdf(x, s=sigma, scale=math.exp(mu))
        assert ours == pytest.approx(ref, abs=1e-10)


def test_log_pdf_out_of_support():
    p = LognormalParams(1.0, 0.3)
    assert log_pdf(p, 0.0) == -math.inf
    assert log_pdf(p, -2.0) == -math.inf


def test_sample_mean_approaches_baseline():
    p = from_baseline(10.0, 0.5)
    draws = np.exp(p.mu + p.sigma * normals(stream_key(11, "m"), np.arange(200_000)))
    se = 10.0 * math.sqrt(math.exp(0.25) - 1.0) / math.sqrt(200_000)
    assert abs(draws.mean() - 10.0) < 4 * se
    assert np.all(draws > 0)
