"""Forecast-accuracy metrics over completion-time samples.

RMSE is the per-replicate root mean square deviation from the realized
completion time, so for a sample-based forecast it blends estimator bias
with distribution spread; that is deliberate. A point forecast is a
one-replicate forecast, scored by the same functions: on a single sample
both rmse and mae are its absolute deviation, exactly.
"""

from __future__ import annotations

import numpy as np


def rmse(samples, t_true: float) -> float:
    x = np.asarray(samples, dtype=np.float64)
    with np.errstate(over="ignore"):  # inf, which the JSON writers reject
        return float(np.sqrt(np.mean((x - t_true) ** 2)))


def mae(samples, t_true: float) -> float:
    x = np.asarray(samples, dtype=np.float64)
    return float(np.mean(np.abs(x - t_true)))
