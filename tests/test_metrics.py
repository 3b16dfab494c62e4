"""Forecast-accuracy metrics: formula oracles and structural identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stoched.metrics import mae, rmse


def test_rmse_and_mae_by_formula():
    samples = [10.0, 12.0, 14.0]
    # deviations from 11: -1, 1, 3
    assert rmse(samples, 11.0) == pytest.approx(math.sqrt((1 + 1 + 9) / 3))
    assert mae(samples, 11.0) == pytest.approx((1 + 1 + 3) / 3)


# |f - t| <= 2**500 keeps its square finite; >= 2**-500 keeps it normal
_BOUNDED = st.floats(min_value=-(2.0**499), max_value=2.0**499)


@given(_BOUNDED, _BOUNDED)
def test_one_sample_scores_are_the_absolute_deviation(f, t):
    # a point forecast is a one-sample forecast: both scores reduce to
    # |f - t| exactly, since sqrt(fl(d * d)) == |d| without under/overflow
    deviation = abs(f - t)
    assume(deviation == 0.0 or deviation >= 2.0**-500)
    assert rmse([f], t) == deviation
    assert mae([f], t) == deviation


def test_mae_never_exceeds_rmse():
    rng = np.random.default_rng(41)
    for _ in range(50):
        samples = rng.uniform(0.0, 30.0, size=int(rng.integers(2, 200)))
        t = float(rng.uniform(0.0, 30.0))
        assert mae(samples, t) <= rmse(samples, t) + 1e-12


def test_translation_consistency():
    rng = np.random.default_rng(43)
    samples = rng.uniform(5.0, 15.0, size=100)
    shift = 3.75
    assert rmse(samples + shift, 10.0 + shift) == pytest.approx(rmse(samples, 10.0))
    assert mae(samples + shift, 10.0 + shift) == pytest.approx(mae(samples, 10.0))


def test_rmse_about_mean_is_population_sd():
    rng = np.random.default_rng(47)
    samples = rng.normal(20.0, 4.0, size=1000)
    assert rmse(samples, float(samples.mean())) == pytest.approx(
        float(samples.std(ddof=0))
    )


def test_rmse_dominates_absolute_bias():
    rng = np.random.default_rng(53)
    for _ in range(30):
        samples = rng.normal(10.0, 2.0, size=64)
        t = float(rng.uniform(0.0, 25.0))
        bias = abs(float(samples.mean()) - t)
        assert rmse(samples, t) >= bias - 1e-12
