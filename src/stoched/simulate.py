"""Monte Carlo propagation of duration uncertainty through the network.

Each replicate draws one duration per stochastic activity and runs the
CPM kernel; completion times and per-replicate critical sets are
aggregated into a ForecastResult. Draws are addressed by (replicate,
activity) counters on a stream keyed by the config seed, and replicates
are processed in fixed-size chunks whose results land in preallocated
index-ordered arrays, so the output is bit-identical for any worker
count. Criticality counts are integers and sum exactly.

simulate_many forecasts several model sets (per-activity model lists)
of one network from one draw pass. Every set reads the same normal at
each (replicate, activity) counter, so they are forecast under common
random numbers, and each chunk hashes and inverts its normals once for
all of them. simulate is its one-set call.

Each worker allocates its buffers once per call: one (activities, chunk)
duration matrix per model set, the kernel's es/ef/ls arrays and one
block of counters. It takes chunk indices from a shared counter and
reuses those buffers for every chunk it takes, so a call's memory does
not grow with N or hang on the allocator's trim heuristics. A chunk's
draws are made one block of _BLOCK_ROWS activities at a time: hashed
into the first set's rows of the block, exponentiated from there into
each later set's rows, then transformed in place, all while the block
is in cache. Every buffer cell a chunk reads was written for that chunk,
so reused buffers never enter results. Once a chunk fails, no worker
takes a new one, and the failure of the lowest failed chunk is raised:
chunks are taken in index order, so every lower chunk has run.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

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
    return simulate_many(net, [per_activity], cfg, workers)[0]


def simulate_many(
    net: ProjectNetwork,
    model_sets: Sequence[list[DurationModel]],
    cfg: SimulationConfig,
    workers: int = 1,
) -> list[ForecastResult]:
    """One forecast per model set (a per-activity model list), all from
    one draw pass.

    Each result is bit-identical to simulate(net, models, cfg, workers)
    on its set alone. A failed call raises the failure of the lowest
    chunk in which any set fails; in that chunk, draws are checked block
    by block of activities, and set by set within a block.
    """
    n = net.activity_count
    for models in model_sets:
        if len(models) != n:
            raise LengthMismatch(f"expected {n} duration models, got {len(models)}")
    if cfg.replicate_count < 1:
        raise ValueError(f"replicate_count must be >= 1, got {cfg.replicate_count}")
    if not model_sets:
        return []

    n_rep = cfg.replicate_count
    chunk_count = (n_rep + _CHUNK - 1) // _CHUNK
    samples = [np.empty(n_rep) for _ in model_sets]
    chunk_counts = [np.empty((chunk_count, n), dtype=np.int64) for _ in model_sets]
    sampler = _Sampler(model_sets, cfg.seed)
    width = min(_CHUNK, n_rep)
    pending = iter(range(chunk_count))
    failures: dict[int, NonFiniteResult] = {}  # chunk index -> what it raised
    lock = threading.Lock()

    def worker() -> None:
        matrices = [np.empty(n * width) for _ in range(len(model_sets) + 3)]
        counters = sampler.counter_buffer(width)
        while True:
            with lock:
                index = None if failures else next(pending, None)
            if index is None:
                return
            a = index * _CHUNK
            b = min(a + _CHUNK, n_rep)
            # a flat prefix keeps a short last chunk C-contiguous
            *durations, es, ef, ls = (m[: n * (b - a)].reshape(n, b - a) for m in matrices)
            try:
                sampler.fill(durations, a, counters)
                for j, matrix in enumerate(durations):
                    batch = cpm_batch(net, matrix, es=es, ef=ef, ls=ls)
                    samples[j][a:b] = batch.completion_time
                    chunk_counts[j][index] = batch.critical_mask.sum(axis=1)
            except NonFiniteResult as failure:
                with lock:
                    failures[index] = failure
                return

    threads = min(workers, chunk_count)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(worker) for _ in range(threads)]:
                future.result()
    else:
        worker()
    if failures:
        raise failures[min(failures)]
    return [
        _forecast_result(x, counts.sum(axis=0), cfg.target_completion)
        for x, counts in zip(samples, chunk_counts)
    ]


def _forecast_result(
    samples: np.ndarray, counts: np.ndarray, target: float
) -> ForecastResult:
    """The statistics of one model set's samples and critical counts."""
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
        delay_probability=delay_probability_from(samples, target),
        critical_probability=counts / samples.shape[0],
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
    sampler = _Sampler([per_activity], seed)
    sampler.fill([durations], row_start, sampler.counter_buffer(durations.shape[1]))
    return durations


class _Sampler:
    """The draws of one or more model sets (per-activity model lists) on
    one seed's "sim" stream. Each set has (activities, 1) columns of
    lognormal parameters, with mu = sigma = 0 on frozen rows, and the
    frozen constants that overwrite those rows; the sets share the
    counter offsets and the blocks to draw."""

    def __init__(self, model_sets: Sequence[list[DurationModel]], seed: int) -> None:
        self.frozen, self.mu, self.sigma, draws = [], [], [], []
        for models in model_sets:
            live = [not isinstance(m, FrozenDuration) for m in models]
            self.frozen.append([(i, m.value) for i, m in enumerate(models) if not live[i]])
            pairs = [(m.mu, m.sigma) if d else (0.0, 0.0) for m, d in zip(models, live)]
            self.mu.append(np.array([[mu] for mu, _ in pairs]))
            self.sigma.append(np.array([[sigma] for _, sigma in pairs]))
            draws.append(live)
        n = len(draws[0])
        self.offsets = np.arange(n, dtype=np.uint64)[:, None]
        # blocks of _BLOCK_ROWS activities that some set draws in, each
        # with the sets that do
        self.blocks = []
        for a in range(0, n, _BLOCK_ROWS):
            sets = [j for j, live in enumerate(draws) if any(live[a : a + _BLOCK_ROWS])]
            if sets:
                self.blocks.append((a, a + _BLOCK_ROWS, sets))
        self.key = stream_key(seed, "sim")

    def counter_buffer(self, width: int) -> np.ndarray:
        """The counters of a block of up to width replicates."""
        return np.empty(min(_BLOCK_ROWS, len(self.offsets)) * width, dtype=np.uint64)

    def fill(
        self, durations: list[np.ndarray], row_start: int, counters: np.ndarray
    ) -> None:
        """Write replicates row_start.. into durations, one (activities,
        replicates) matrix per set. Each block's normals are hashed into
        the first set's rows; every later set that draws in the block
        exponentiates its own rows from them, and then the first set's
        rows are transformed in place: exp(0) on a frozen row until its
        constant overwrites it. Raises NonFiniteResult if a draw
        overflows, for the first block and, in it, the first set."""
        n, width = durations[0].shape
        replicate_base = np.arange(row_start, row_start + width, dtype=np.uint64)
        replicate_base *= np.uint64(n)
        with np.errstate(over="ignore"):
            for a, b, sets in self.blocks:
                z = durations[0][a:b]
                c = counters[: z.size].reshape(z.shape)
                np.add(replicate_base, self.offsets[a:b], out=c)
                normals(self.key, c, out=z)
                # set 0 last, as its rows hold z; each set's rows are
                # bit-equal to exp(mu + sigma * z): + and * commute
                for j in reversed(sets):
                    rows = durations[j][a:b]
                    np.multiply(z, self.sigma[j][a:b], out=rows)
                    rows += self.mu[j][a:b]
                    np.exp(rows, out=rows)
                for j in sets:
                    rows = durations[j][a:b]
                    if not rows.max() < np.inf:
                        bad = a + int(np.argmin(np.isfinite(rows).all(axis=1)))
                        raise NonFiniteResult(f"activity {bad}: a duration draw overflows")
        for matrix, frozen in zip(durations, self.frozen):
            for i, value in frozen:
                matrix[i] = value
