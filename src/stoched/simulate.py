"""Monte Carlo propagation of duration uncertainty through the network.

Each replicate draws one duration per stochastic activity and runs the
CPM kernel; completion times and per-replicate critical sets are
aggregated into a ForecastResult. Draws are addressed by (replicate,
activity) counters on a stream keyed by the config seed, and replicates
are processed in fixed-size chunks whose results land in preallocated
index-ordered arrays, so the output is bit-identical for any worker
count. Criticality counts are integers and sum exactly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .durations import DurationModel, FrozenDuration
from .errors import LengthMismatch
from .network import ProjectNetwork, cpm_batch
from .rng import normals, stream_key

_CHUNK = 4096

QUANTILE_LEVELS = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class SimulationConfig:
    replicate_count: int
    seed: int
    target_completion: float


@dataclass(frozen=True)
class ForecastResult:
    expected_completion: float
    completion_variance: float  # population form, divisor N
    delay_probability: float  # P(T > target), strict inequality
    critical_probability: np.ndarray  # (n,)
    critical_counts: np.ndarray  # (n,) int64
    samples: np.ndarray  # (N,)
    quantiles: dict[float, float]
    ci90_width: float


def simulate(
    net: ProjectNetwork,
    per_activity: list[DurationModel],
    cfg: SimulationConfig,
    workers: int = 1,
) -> ForecastResult:
    """Forecast completion statistics from per-activity duration models."""
    n = net.activity_count
    if len(per_activity) != n:
        raise LengthMismatch(
            f"expected {n} duration models, got {len(per_activity)}"
        )
    if cfg.replicate_count < 1:
        raise ValueError(f"replicate_count must be >= 1, got {cfg.replicate_count}")

    n_rep = cfg.replicate_count
    samples = np.empty(n_rep)
    chunk_bounds = [
        (a, min(a + _CHUNK, n_rep)) for a in range(0, n_rep, _CHUNK)
    ]
    chunk_counts: list[np.ndarray | None] = [None] * len(chunk_bounds)

    def run_chunk(index: int) -> None:
        a, b = chunk_bounds[index]
        durations = sample_duration_matrix(net, per_activity, cfg.seed, a, b)
        batch = cpm_batch(net, durations)
        samples[a:b] = batch.completion_time
        chunk_counts[index] = batch.critical_mask.sum(axis=0, dtype=np.int64)

    if workers > 1 and len(chunk_bounds) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, range(len(chunk_bounds))))
    else:
        for index in range(len(chunk_bounds)):
            run_chunk(index)

    counts = np.zeros(n, dtype=np.int64)
    for c in chunk_counts:
        counts += c

    expected = float(np.mean(samples))
    variance = float(np.mean((samples - expected) ** 2))
    levels = np.quantile(samples, QUANTILE_LEVELS)
    quantiles = {level: float(q) for level, q in zip(QUANTILE_LEVELS, levels)}
    return ForecastResult(
        expected_completion=expected,
        completion_variance=variance,
        delay_probability=delay_probability_from(samples, cfg.target_completion),
        critical_probability=counts / n_rep,
        critical_counts=counts,
        samples=samples,
        quantiles=quantiles,
        ci90_width=float(quantiles[0.95] - quantiles[0.05]),
    )


def delay_probability_from(samples, target: float) -> float:
    """Fraction of samples strictly greater than the target."""
    x = np.asarray(samples)
    return float(np.count_nonzero(x > target) / x.shape[0])


def sample_duration_matrix(
    net: ProjectNetwork,
    per_activity: list[DurationModel],
    seed: int,
    row_start: int,
    row_stop: int,
) -> np.ndarray:
    """Duration draws of replicates row_start..row_stop-1, one row each.

    Cell (k, i) is drawn at counter k*n + i of the seed's "sim" stream:
    addressing by absolute replicate and activity keeps chunking out of
    the results. Frozen activities keep their constant and use no draws.
    """
    n = net.activity_count
    frozen = np.array(
        [isinstance(m, FrozenDuration) for m in per_activity], dtype=bool
    )
    base = np.array(
        [
            m.value if isinstance(m, FrozenDuration) else 0.0
            for m in per_activity
        ]
    )
    durations = np.broadcast_to(base, (row_stop - row_start, n)).copy()
    active = np.flatnonzero(~frozen)
    if active.size:
        mu = np.array([per_activity[i].mu for i in active])
        sigma = np.array([per_activity[i].sigma for i in active])
        rows = np.arange(row_start, row_stop, dtype=np.uint64)[:, None]
        cols = active.astype(np.uint64)[None, :]
        z = normals(stream_key(seed, "sim"), rows * np.uint64(n) + cols)
        durations[:, active] = np.exp(mu + sigma * z)
    return durations
