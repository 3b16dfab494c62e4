"""Forecast-accuracy metrics over completion-time samples.

RMSE is the per-replicate root mean square deviation from the realized
completion time, so for a sample-based forecast it blends estimator bias
with distribution spread; that is deliberate. Deterministic point
forecasts are scored with scalar_rmse (absolute deviation), which equals
rmse of a constant sample vector of any length.
"""

from __future__ import annotations

import numpy as np


def rmse(samples, t_true: float) -> float:
    x = np.asarray(samples, dtype=np.float64)
    return float(np.sqrt(np.mean((x - t_true) ** 2)))


def mae(samples, t_true: float) -> float:
    x = np.asarray(samples, dtype=np.float64)
    return float(np.mean(np.abs(x - t_true)))


def scalar_rmse(point_forecast: float, t_true: float) -> float:
    """Deviation of a deterministic point forecast."""
    return abs(point_forecast - t_true)
