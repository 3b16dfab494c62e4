"""Monte Carlo propagation of duration uncertainty through the network.

Each replicate draws one duration per stochastic activity and runs the
CPM kernel; completion times and, if read, critical sets are aggregated
into a ForecastResult. Replicates 2m and 2m + 1 are an antithetic pair:
activity i's normal z sits at counter m*n + i of a stream keyed by the
config seed, and the even replicate reads z, the odd one -z, so each
pass hashes and inverts half as many normals as it uses. Draws are
addressed by counter, and replicates are processed in fixed-size chunks
whose results land in preallocated index-ordered arrays, so the output
is bit-identical for any worker count. Chunks are 4096 wide, so a pair
never straddles two, and an odd replicate count leaves its last
replicate unpaired. Criticality counts are integers and sum exactly.

simulate_many forecasts several model sets (per-activity model lists)
of one network from one draw pass and one CPM kernel call per chunk.
Every set reads the same normal at each (replicate, activity) counter,
so they are forecast under common random numbers; each chunk hashes and
inverts its pairs' normals once for all of them, and its sets' duration
matrices sit side by side in the rows of one (activities, sets x chunk)
matrix, whose forward pass alone runs when no criticality is read.
simulate is its one-set call.

A call runs one worker in the calling thread and up to workers - 1 on
helper threads of one pool that every call shares, made on first use
and replaced by a larger one when a call needs more helpers than it
holds. Each thread keeps one flat float64 workspace between calls,
grown to its largest request and never shrunk; a worker views its
prefix as the joint duration matrix, the kernel's ef array (es, ef and
ls with criticality), each as large, and one block of counters, and
reuses the views for every chunk it takes. A thread so holds 2 x sets x
activities x 4096 x 8 bytes (4 x sets x ... with criticality) plus
512 KB of counters for its largest call, about 16 MB for a j120
forecast, and a call's memory does not grow with N. A chunk's draws are
made one block of _BLOCK_ROWS activities at a time: the pairs' normals
hashed into the second half of the counter block, written with their
negations into the first set's rows of the block, exponentiated from
there into each later set's rows, then transformed in place, all while
the block is in cache. Every buffer cell a chunk reads was written for
that chunk, so reused buffers never enter results, in this call or a
later one. Once a chunk fails, no worker takes a new one, and the
failure of the lowest failed chunk is raised: chunks are taken in index
order, so every lower chunk has run. When the calling thread's worker
returns or raises, the call hands out no more chunks, cancels the
helpers that have not started and waits for the others, so it never
waits on a queued helper and no helper draws after it returns.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .durations import DurationModel, FrozenDuration
from .errors import LengthMismatch, NonFiniteResult
from .network import ProjectNetwork, cpm_batch, finish_times
from .rng import normals, stream_key

_CHUNK = 4096
# Activities drawn per block: 16 x 4096 cells is 512 KB per array, which
# keeps a block's counters, draws and hash scratch in L2.
_BLOCK_ROWS = 16

QUANTILE_LEVELS = (0.05, 0.5, 0.95)

_local = threading.local()  # each thread's workspace
# the helper threads every call shares, and how many the pool holds
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


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
    critical_probability: np.ndarray | None  # (n,); None if not counted
    critical_counts: np.ndarray | None  # (n,) int64; None if not counted
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
    *,
    critical: bool = True,
) -> list[ForecastResult]:
    """One forecast per model set (a per-activity model list), all from
    one draw pass and one CPM pass per chunk.

    Each result is bit-identical to simulate(net, models, cfg, workers)
    on its set alone. With critical=False the pass is forward only and
    the results carry no criticality (both fields None). A failed call
    raises the failure of the lowest chunk in which any set fails; in
    that chunk, draws are checked block by block of activities, and set
    by set within a block.
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
    sets = len(model_sets)
    chunk_count = (n_rep + _CHUNK - 1) // _CHUNK
    samples = np.empty((sets, n_rep))
    chunk_counts = np.empty((chunk_count, sets, n), dtype=np.int64) if critical else None
    sampler = _Sampler(model_sets, cfg.seed)
    width = min(_CHUNK, n_rep)
    matrix_count = sets * (4 if critical else 2)
    pending = iter(range(chunk_count))
    failures: dict[int, NonFiniteResult] = {}  # chunk index -> what it raised
    lock = threading.Lock()

    def worker() -> None:
        workspace = _workspace(matrix_count * n * width + sampler.counter_cells(width))
        while True:
            with lock:
                index = None if failures else next(pending, None)
            if index is None:
                return
            a = index * _CHUNK
            w = min(a + _CHUNK, n_rep) - a
            # a flat prefix keeps a short last chunk C-contiguous; each
            # matrix is (n, sets * w), the sets side by side in every row
            matrices = workspace[: matrix_count * n * w]
            joint, *work = matrices.reshape(-1, n, sets * w)
            counters = workspace[matrices.size :].view(np.uint64)
            try:
                sampler.fill(list(joint.reshape(n, sets, w).swapaxes(0, 1)), a, counters)
                if critical:
                    batch = cpm_batch(net, joint, *work)
                    completion = batch.completion_time
                    chunk_counts[index] = batch.critical_mask.reshape(n, sets, w).sum(axis=2).T
                else:
                    completion = finish_times(net, joint, *work)
                samples[:, a : a + w] = completion.reshape(sets, w)
            except NonFiniteResult as failure:
                with lock:
                    failures[index] = failure
                return

    helpers = _submit_helpers(worker, min(workers, chunk_count) - 1)
    try:
        worker()
    finally:
        with lock:
            pending = iter(())  # hand out no more chunks
        # a helper that has not started never will; the others finish
        started = [helper for helper in helpers if not helper.cancel()]
        wait(started)
        if failures:
            raise failures[min(failures)]
    for helper in started:
        helper.result()  # a helper's own error
    counts = chunk_counts.sum(axis=0) if critical else [None] * sets
    return [_forecast_result(x, c, cfg.target_completion) for x, c in zip(samples, counts)]


def _workspace(size: int) -> np.ndarray:
    """The first size cells of this thread's flat float64 workspace; it
    grows to the largest request and is never shrunk."""
    buf = getattr(_local, "workspace", None)
    if buf is None or buf.size < size:
        buf = _local.workspace = None  # free the old one before the new one
        buf = _local.workspace = np.empty(size)
    return buf[:size]


def _submit_helpers(task, count: int) -> list[Future]:
    """Submit count runs of task to the shared helper pool, first
    replacing the pool by one of count threads if it holds fewer. A
    replaced pool finishes the tasks it was given, then its threads exit."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < count:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(count, thread_name_prefix="stoched-simulate")
            _pool_size = count
        return [_pool.submit(task) for _ in range(count)]


def _forecast_result(
    samples: np.ndarray, counts: np.ndarray | None, target: float
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
        critical_probability=None if counts is None else counts / samples.shape[0],
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
    takes it. Cell (i, k) reads the normal at counter (k // 2)*n + i of
    the seed's "sim" stream, negated for odd k: addressing by absolute
    replicate and activity keeps chunking out of the results, and a slice
    may start or stop inside a pair. Frozen activities keep their
    constant, and no other cell's draw depends on them. simulate draws
    each chunk through the same _Sampler.fill.
    """
    durations = np.empty((net.activity_count, row_stop - row_start))
    sampler = _Sampler([per_activity], seed)
    counters = np.empty(sampler.counter_cells(durations.shape[1]), dtype=np.uint64)
    sampler.fill([durations], row_start, counters)
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

    def counter_cells(self, width: int) -> int:
        """How many counters a block of up to width replicates takes: a
        slice from any replicate spans at most width // 2 + 1 pairs, and
        each pair's normal takes a counter cell and a target cell."""
        return min(_BLOCK_ROWS, len(self.offsets)) * 2 * (width // 2 + 1)

    def fill(
        self, durations: list[np.ndarray], row_start: int, counters: np.ndarray
    ) -> None:
        """Write replicates row_start.. into durations, one (activities,
        replicates) matrix per set. Replicates 2m and 2m + 1 are an
        antithetic pair: activity i reads the normal z at counter m*n + i
        in the first and -z in the second. Each block's pair normals are
        hashed into the second half of counters, then written into the
        first set's rows, z to even replicates and -z to odd ones; every
        later set that draws in the block exponentiates its own rows from
        them, and then the first set's rows are transformed in place:
        exp(0) on a frozen row until its constant overwrites it. Raises
        NonFiniteResult if a draw overflows, for the first block and, in
        it, the first set."""
        n, width = durations[0].shape
        first_pair = row_start // 2
        pair_count = (row_start + width - 1) // 2 - first_pair + 1
        pair_base = np.arange(first_pair, first_pair + pair_count, dtype=np.uint64)
        pair_base *= np.uint64(n)
        even = row_start % 2  # the first column of an even replicate
        with np.errstate(over="ignore"):
            for a, b, sets in self.blocks:
                z = durations[0][a:b]
                cells = z.shape[0] * pair_count
                c = counters[:cells].reshape(z.shape[0], pair_count)
                pairs = counters[cells : 2 * cells].view(np.float64).reshape(c.shape)
                np.add(pair_base, self.offsets[a:b], out=c)
                normals(self.key, c, out=pairs)
                z[:, even::2] = pairs[:, even : even + (width - even + 1) // 2]
                np.negative(pairs[:, : (width + even) // 2], out=z[:, 1 - even :: 2])
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
