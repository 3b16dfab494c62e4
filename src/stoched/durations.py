"""Lognormal activity-duration model.

An activity duration is either Lognormal(mu, sigma) in log space or a
frozen constant (dummy activities with baseline 0 stay exactly 0 and
never consume randomness). Priors are built mean-preserving from a
deterministic baseline d: mu = ln d - sigma^2/2, so the expected duration
equals d exactly and a deterministic pass over prior means reproduces the
baseline schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ConfigError, NonPositiveBaseline

# Lower bound on sigma: densities stay well-defined while sigma -> 0
# approximates a deterministic activity.
SIGMA_MIN = 1e-6


@dataclass(frozen=True)
class LognormalParams:
    mu: float
    sigma: float


@dataclass(frozen=True)
class FrozenDuration:
    """A duration that is a known constant (zero for dummy activities)."""

    value: float


DurationModel = Union[LognormalParams, FrozenDuration]


def is_frozen(model: DurationModel) -> bool:
    return isinstance(model, FrozenDuration)


def expected_duration(model: DurationModel) -> float:
    """Mean duration: exp(mu + sigma^2/2), or the frozen constant."""
    if isinstance(model, FrozenDuration):
        return model.value
    return math.exp(model.mu + 0.5 * model.sigma * model.sigma)


def from_baseline(d: float, sigma: float) -> DurationModel:
    """Mean-preserving prior for baseline duration d.

    d = 0 yields a frozen-zero duration (ln 0 is undefined and dummy
    activities must stay exact); d < 0 is rejected, and so is a sigma
    that is negative, NaN or so large that sigma^2, and with it mu,
    overflows.
    """
    sigma = float(sigma)
    if not (sigma >= 0 and math.isfinite(sigma * sigma)):
        raise ConfigError(f"sigma must be >= 0 with a finite square, got {sigma}")
    if d < 0 or not math.isfinite(d):
        raise NonPositiveBaseline(f"baseline duration must be >= 0, got {d}")
    if d == 0:
        return FrozenDuration(0.0)
    sigma = max(sigma, SIGMA_MIN)
    return LognormalParams(mu=math.log(d) - 0.5 * sigma * sigma, sigma=sigma)


def priors_from_baselines(baselines, sigma: float) -> list[DurationModel]:
    """Per-activity mean-preserving priors for a baseline duration vector."""
    return [from_baseline(float(d), sigma) for d in baselines]
