"""Monte Carlo propagation of duration uncertainty through the network.

Each replicate draws one duration per stochastic activity and runs the
CPM kernel; completion times and per-replicate critical sets are
aggregated into a ForecastResult. Draws are addressed by (replicate,
activity) counters on a stream keyed by the config seed, and replicates
are processed in fixed-size chunks whose results land in preallocated
index-ordered arrays, so the output is bit-identical for any worker
count. Criticality counts are integers and sum exactly.

Each worker allocates its buffers once per call: the (activities, chunk)
duration matrix, the kernel's es/ef/ls arrays and one block of counters.
It takes chunk indices from a shared counter and reuses those buffers for
every chunk it takes, so a call's memory does not grow with N or hang on
the allocator's trim heuristics. A chunk's draws are made one block of
_BLOCK_ROWS activities at a time, hashed, transformed and exponentiated
in place in the block's own duration rows, which stay in cache
throughout. Every buffer cell a chunk reads was written for that chunk,
so reused buffers never enter results.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .durations import DurationModel, FrozenDuration
from .errors import LengthMismatch, NonFiniteResult
from .network import ProjectNetwork, cpm_batch
from .rng import normals, stream_key

_CHUNK = 4096
# Activities drawn per block: 16 x 4096 cells is 512 KB per array, which
# keeps a block's counters, draws and hash scratch in L2.
_BLOCK_ROWS = 16

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
    chunk_bounds = [(a, min(a + _CHUNK, n_rep)) for a in range(0, n_rep, _CHUNK)]
    chunk_counts = np.empty((len(chunk_bounds), n), dtype=np.int64)
    sampler = _Sampler(per_activity, cfg.seed)
    width = min(_CHUNK, n_rep)
    pending = iter(range(len(chunk_bounds)))
    lock = threading.Lock()

    def worker() -> None:
        matrices = [np.empty(n * width) for _ in range(4)]
        counters = sampler.counter_buffer(width)
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            a, b = chunk_bounds[index]
            # a flat prefix keeps a short last chunk C-contiguous
            durations, es, ef, ls = (m[: n * (b - a)].reshape(n, b - a) for m in matrices)
            sampler.fill(durations, a, counters)
            batch = cpm_batch(net, durations, es=es, ef=ef, ls=ls)
            samples[a:b] = batch.completion_time
            chunk_counts[index] = batch.critical_mask.sum(axis=1)

    threads = min(workers, len(chunk_bounds))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(worker) for _ in range(threads)]:
                future.result()
    else:
        worker()

    counts = chunk_counts.sum(axis=0)

    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.mean(samples))
        variance = float(np.mean((samples - expected) ** 2))
    if not math.isfinite(variance):  # also when the mean overflows
        raise NonFiniteResult("the completion-time variance overflows double precision")
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
    """Duration draws of replicates row_start..row_stop-1, one column each.

    The matrix is activity-major, (activities, replicates), as cpm_batch
    takes it. Cell (i, k) is drawn at counter k*n + i of the seed's "sim"
    stream: addressing by absolute replicate and activity keeps chunking
    out of the results. Frozen activities keep their constant, and no
    other cell's draw depends on them. simulate draws each chunk through
    the same _Sampler.fill.
    """
    durations = np.empty((net.activity_count, row_stop - row_start))
    sampler = _Sampler(per_activity, seed)
    sampler.fill(durations, row_start, sampler.counter_buffer(durations.shape[1]))
    return durations


class _Sampler:
    """The draws of one per-activity model list on one seed's "sim"
    stream, as (activities, 1) columns: counter offsets and lognormal
    parameters, with mu = sigma = 0 on frozen rows, and the frozen
    constants that overwrite those rows."""

    def __init__(self, per_activity: list[DurationModel], seed: int) -> None:
        frozen = [isinstance(m, FrozenDuration) for m in per_activity]
        self.frozen = [(i, m.value) for i, m in enumerate(per_activity) if frozen[i]]
        self.offsets = np.arange(len(per_activity), dtype=np.uint64)[:, None]
        self.mu = np.array([[0.0 if f else m.mu] for m, f in zip(per_activity, frozen)])
        self.sigma = np.array([[0.0 if f else m.sigma] for m, f in zip(per_activity, frozen)])
        # blocks of _BLOCK_ROWS activities, but none with nothing to draw
        self.blocks = [
            (a, a + _BLOCK_ROWS)
            for a in range(0, len(frozen), _BLOCK_ROWS)
            if not all(frozen[a : a + _BLOCK_ROWS])
        ]
        self.key = stream_key(seed, "sim")

    def counter_buffer(self, width: int) -> np.ndarray:
        """The counters of a block of up to width replicates."""
        return np.empty(min(_BLOCK_ROWS, len(self.offsets)) * width, dtype=np.uint64)

    def fill(self, durations: np.ndarray, row_start: int, counters: np.ndarray) -> None:
        """Write replicates row_start.. into durations, (activities,
        replicates), hashing each block in its own rows: exp(0) on a
        frozen row until its constant overwrites it. Raises
        NonFiniteResult if a draw overflows."""
        n, width = durations.shape
        replicate_base = np.arange(row_start, row_start + width, dtype=np.uint64)
        replicate_base *= np.uint64(n)
        with np.errstate(over="ignore"):
            for a, b in self.blocks:
                z = durations[a:b]
                c = counters[: z.size].reshape(z.shape)
                np.add(replicate_base, self.offsets[a:b], out=c)
                normals(self.key, c, out=z)
                # in place, and bit-equal to exp(mu + sigma * z): + and * commute
                z *= self.sigma[a:b]
                z += self.mu[a:b]
                np.exp(z, out=z)
                if not z.max() < np.inf:
                    bad = a + int(np.argmin(np.isfinite(z).all(axis=1)))
                    raise NonFiniteResult(f"activity {bad}: a duration draw overflows")
        for i, value in self.frozen:
            durations[i] = value
