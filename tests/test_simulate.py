"""Monte Carlo completion forecasts: oracle equivalence and determinism.

The per-replicate completion values are cross-checked against an
independent route: the duration draws of sample_duration_matrix, the
function simulate() draws through, pushed through explicit path
enumeration. The draws themselves are checked against their counter
addresses on the rng stream, and simulate_many's joint draw pass against
one simulate call per model set.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from conftest import diamond, path_max, random_dag
from stoched import simulate as simulate_module
from stoched.durations import FrozenDuration, LognormalParams, priors_from_baselines
from stoched.errors import LengthMismatch, NonFiniteResult
from stoched.network import build_network, compute_cpm, cpm_batch
from stoched.psplib import parse_sm, to_network
from stoched.rng import normals, stream_key
from stoched.simulate import (
    QUANTILE_LEVELS,
    ForecastResult,
    SimulationConfig,
    delay_probability_from,
    sample_duration_matrix,
    simulate,
    simulate_many,
)
from conftest import read_fixture


def test_all_frozen_is_deterministic():
    net = diamond()
    per_activity = [FrozenDuration(v) for v in (2.0, 3.0, 5.0, 2.0)]
    cfg = SimulationConfig(replicate_count=64, seed=1, target_completion=9.0)
    r = simulate(net, per_activity, cfg)
    assert r.expected_completion == 9.0
    assert r.completion_variance == 0.0
    assert r.delay_probability == 0.0  # strictly-greater convention
    assert np.array_equal(r.critical_probability, [1.0, 0.0, 1.0, 1.0])
    assert np.all(r.samples == 9.0)
    assert r.ci90_width == 0.0


def test_one_frozen_replicate_is_the_cpm_makespan_bit_for_bit():
    # a point forecast: its row scores must be the CPM pass's, unrounded
    rng = np.random.default_rng(67)
    for trial in range(40):
        n = int(rng.integers(2, 14))
        net = random_dag(rng, n)
        durations = rng.lognormal(1.5, 0.8, size=n)
        durations[rng.random(n) < 0.2] = 0.0
        makespan = compute_cpm(net, durations).completion_time
        target = makespan * float(rng.choice([0.9, 1.0, 1.1]))
        cfg = SimulationConfig(replicate_count=1, seed=trial, target_completion=target)
        r = simulate(net, [FrozenDuration(float(d)) for d in durations], cfg)
        assert r.samples.shape == (1,)
        assert r.expected_completion == makespan
        assert r.completion_variance == 0.0
        assert r.ci90_width == 0.0
        assert r.delay_probability == (1.0 if makespan > target else 0.0)


def test_samples_match_path_enumeration_oracle():
    rng = np.random.default_rng(61)
    net = random_dag(rng, 8)
    per_activity = priors_from_baselines(rng.integers(1, 9, size=8), 0.4)
    cfg = SimulationConfig(replicate_count=100, seed=902, target_completion=20.0)
    r = simulate(net, per_activity, cfg)
    draws = sample_duration_matrix(net, per_activity, seed=902, row_start=0, row_stop=100)
    for k in range(100):
        assert r.samples[k] == pytest.approx(path_max(net, draws[:, k]), abs=1e-9)
    assert r.expected_completion == pytest.approx(float(r.samples.mean()))
    assert r.completion_variance == pytest.approx(float(r.samples.var(ddof=0)))


def test_duration_matrix_slices_are_position_stable():
    net = diamond()
    per_activity = priors_from_baselines([3.0, 4.0, 5.0, 2.0], 0.3)
    full = sample_duration_matrix(net, per_activity, seed=77, row_start=0, row_stop=40)
    part = sample_duration_matrix(net, per_activity, seed=77, row_start=25, row_stop=33)
    assert np.array_equal(part, full[:, 25:33])


def test_workers_do_not_change_results():
    net = random_dag(np.random.default_rng(67), 12)
    per_activity = priors_from_baselines(
        np.random.default_rng(68).integers(1, 9, size=12), 0.4
    )
    cfg = SimulationConfig(replicate_count=10_000, seed=5, target_completion=25.0)
    a = simulate(net, per_activity, cfg, workers=1)
    b = simulate(net, per_activity, cfg, workers=4)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.critical_counts, b.critical_counts)
    assert a.expected_completion == b.expected_completion
    assert a.completion_variance == b.completion_variance
    assert a.quantiles == b.quantiles


def test_same_seed_reproduces_different_seed_differs():
    net = diamond()
    per_activity = priors_from_baselines([2.0, 3.0, 5.0, 2.0], 0.3)
    cfg = SimulationConfig(replicate_count=500, seed=11, target_completion=10.0)
    a = simulate(net, per_activity, cfg)
    b = simulate(net, per_activity, cfg)
    assert np.array_equal(a.samples, b.samples)
    c = simulate(
        net,
        per_activity,
        SimulationConfig(replicate_count=500, seed=12, target_completion=10.0),
    )
    assert not np.array_equal(a.samples, c.samples)


def test_delay_probability_examples():
    assert delay_probability_from([8.0, 9.0, 11.0, 12.0], 10.0) == 0.5
    assert delay_probability_from([10.0, 10.0, 10.0], 10.0) == 0.0
    assert delay_probability_from([1.0, 2.0, 3.0], 0.0) == 1.0


def test_critical_counts_consistent_and_contain_a_path():
    rng = np.random.default_rng(71)
    net = random_dag(rng, 7)
    per_activity = priors_from_baselines(rng.integers(1, 8, size=7), 0.5)
    cfg = SimulationConfig(replicate_count=200, seed=31, target_completion=15.0)
    r = simulate(net, per_activity, cfg)
    assert np.array_equal(
        r.critical_probability, r.critical_counts / cfg.replicate_count
    )
    draws = sample_duration_matrix(net, per_activity, seed=31, row_start=0, row_stop=200)
    batch = cpm_batch(net, draws)
    assert np.array_equal(r.critical_counts, batch.critical_mask.sum(axis=1))
    assert np.array_equal(r.samples, batch.completion_time)


def test_dummy_endpoints_always_critical_on_parsed_instance():
    inst = parse_sm(read_fixture("j30_fix_a.sm"))
    net, baselines = to_network(inst)
    per_activity = priors_from_baselines(baselines, 0.3)
    cfg = SimulationConfig(replicate_count=300, seed=13, target_completion=50.0)
    r = simulate(net, per_activity, cfg)
    assert r.critical_probability[0] == 1.0
    assert r.critical_probability[-1] == 1.0


def test_quantiles_ordered_and_ci90_matches():
    net = diamond()
    per_activity = priors_from_baselines([2.0, 3.0, 5.0, 2.0], 0.5)
    cfg = SimulationConfig(replicate_count=2000, seed=3, target_completion=9.0)
    r = simulate(net, per_activity, cfg)
    assert tuple(sorted(QUANTILE_LEVELS)) == QUANTILE_LEVELS
    assert r.quantiles[0.05] <= r.quantiles[0.5] <= r.quantiles[0.95]
    assert r.ci90_width == pytest.approx(r.quantiles[0.95] - r.quantiles[0.05])
    levels = np.quantile(r.samples, QUANTILE_LEVELS)
    for level, value in zip(QUANTILE_LEVELS, levels):
        assert r.quantiles[level] == pytest.approx(float(value))


def test_frozen_activities_do_not_perturb_live_draw_alignment():
    # replacing a lognormal activity by a frozen one must not shift the
    # draws of the remaining activities (counter-based per-cell streams)
    net = build_network(3, [(0, 1), (1, 2)])
    live = priors_from_baselines([4.0, 5.0, 6.0], 0.3)
    mixed = [live[0], FrozenDuration(5.0), live[2]]
    a = sample_duration_matrix(net, live, seed=9, row_start=0, row_stop=20)
    b = sample_duration_matrix(net, mixed, seed=9, row_start=0, row_stop=20)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[2], b[2])
    assert np.all(b[1] == 5.0)
    # every live cell (i, k) is the draw at counter (k // 2)*n + i of the
    # "sim" stream, negated for odd k
    key = stream_key(9, "sim")
    for k, i in [(0, 0), (0, 2), (7, 1), (7, 2), (19, 2)]:
        z = normals(key, [k // 2 * 3 + i]) * (-1.0 if k % 2 else 1.0)
        assert a[i, k] == np.exp(live[i].mu + live[i].sigma * z)[0]


def test_odd_slice_bounds_read_each_pairs_one_normal(monkeypatch):
    # A model with sigma negated reads sigma * (-z) where the model reads
    # sigma * z, bit for bit; so if each odd replicate reads the negation
    # of its even partner's normal, replicate k of one is replicate k ^ 1
    # of the other. Slices from odd replicates leave partners outside.
    monkeypatch.setattr(simulate_module, "_BLOCK_ROWS", 3)  # 3 blocks of 7 rows
    net = build_network(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3, 6), (5, 6)])
    models = priors_from_baselines([3.0, 4.0, 5.0, 6.0, 2.0, 7.0, 1.0], 0.4)
    models[4] = FrozenDuration(2.5)
    negated = [
        m if isinstance(m, FrozenDuration) else LognormalParams(m.mu, -m.sigma)
        for m in models
    ]
    for start, stop in ((25, 33), (25, 34), (24, 33), (7, 8), (0, 1)):
        part = sample_duration_matrix(net, models, 3, start, stop)
        partners = sample_duration_matrix(net, negated, 3, start - start % 2, stop + stop % 2)
        for k in range(start, stop):
            assert np.array_equal(part[:, k - start], partners[:, (k ^ 1) - start + start % 2])
        full = sample_duration_matrix(net, models, 3, 0, stop)
        assert np.array_equal(part, full[:, start:])


def test_input_validation():
    net = diamond()
    per_activity = priors_from_baselines([2.0, 3.0, 5.0], 0.3)
    cfg = SimulationConfig(replicate_count=10, seed=1, target_completion=9.0)
    with pytest.raises(LengthMismatch):
        simulate(net, per_activity, cfg)
    good = priors_from_baselines([2.0, 3.0, 5.0, 2.0], 0.3)
    with pytest.raises(ValueError):
        simulate(net, good, SimulationConfig(replicate_count=0, seed=1, target_completion=9.0))


def _mixed_models(seed: int):
    """A random DAG whose models are frozen at a source, a sink and a
    mid-network activity, and lognormal elsewhere."""
    rng = np.random.default_rng(seed)
    net = random_dag(rng, 17)
    models = priors_from_baselines(rng.integers(1, 9, size=17), 0.4)
    sink = next(i for i in net.sinks if net.predecessors[i])
    source = next(i for i in net.sources if net.successors[i])
    mid = next(i for i in range(17) if net.predecessors[i] and net.successors[i])
    for i, value in ((source, 3.0), (sink, 0.0), (mid, 2.5)):
        models[i] = FrozenDuration(value)
    return net, models


def _per_chunk_reference(net, models, seed: int, n_rep: int, chunk: int):
    """The samples and critical counts of one model set, from a fresh
    sample_duration_matrix and cpm_batch per chunk of replicates."""
    samples, counts = [], 0
    for a in range(0, n_rep, chunk):
        draws = sample_duration_matrix(net, models, seed, a, min(a + chunk, n_rep))
        batch = cpm_batch(net, draws)
        samples.append(batch.completion_time)
        counts = counts + batch.critical_mask.sum(axis=1)
    return np.concatenate(samples), counts


def _assert_matches(result: ForecastResult, reference) -> None:
    samples, counts = reference
    assert result.samples.tobytes() == samples.tobytes()
    assert np.array_equal(result.critical_counts, counts)


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty helper pool for the test, shut down after it."""
    monkeypatch.setattr(simulate_module, "_pool", None)
    monkeypatch.setattr(simulate_module, "_pool_size", 0)
    yield
    if simulate_module._pool is not None:
        simulate_module._pool.shutdown(wait=True)


def test_reused_buffers_match_a_per_chunk_reference(monkeypatch):
    net, models = _mixed_models(73)
    chunk, n_rep = 64, 64 * 12 + 23  # 13 chunks, the last one short
    reference = _per_chunk_reference(net, models, 21, n_rep, chunk)

    # 17 activities make blocks of 3 rows and a last one of 2
    monkeypatch.setattr(simulate_module, "_CHUNK", chunk)
    monkeypatch.setattr(simulate_module, "_BLOCK_ROWS", 3)
    cfg = SimulationConfig(replicate_count=n_rep, seed=21, target_completion=20.0)
    # Frequent thread switches: two workers taking one chunk index would
    # leave another chunk's samples unwritten.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            _assert_matches(simulate(net, models, cfg, workers=workers), reference)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("n_rep", [4097, 8193])
def test_odd_replicate_counts_match_a_per_chunk_reference_at_an_odd_chunk(n_rep):
    # 4096-wide chunks leave the last replicate unpaired; 63-wide reference
    # chunks split pairs, so each of their odd bounds draws a partner's
    # normal again
    net, models = _mixed_models(73)
    reference = _per_chunk_reference(net, models, 21, n_rep, 63)
    cfg = SimulationConfig(replicate_count=n_rep, seed=21, target_completion=20.0)
    for workers in (1, 3):
        _assert_matches(simulate(net, models, cfg, workers=workers), reference)


def _plain_mc_samples(net, models, seed: int, n_rep: int) -> np.ndarray:
    """Completion times with no pairs: replicate k of activity i reads
    the normal at counter k*n + i of the seed's "sim" stream."""
    n = net.activity_count
    counters = np.add.outer(np.arange(n, dtype=np.uint64), np.arange(n_rep, dtype=np.uint64) * n)
    z = normals(stream_key(seed, "sim"), counters)
    live = [not isinstance(m, FrozenDuration) for m in models]
    mu = np.array([[m.mu if d else 0.0] for m, d in zip(models, live)])
    sigma = np.array([[m.sigma if d else 0.0] for m, d in zip(models, live)])
    durations = np.exp(mu + sigma * z)
    for i, m in enumerate(models):
        if not live[i]:
            durations[i] = m.value
    return cpm_batch(net, durations).completion_time


def test_pairs_do_not_raise_the_variance_of_the_mean_or_the_delay_probability():
    # Over 40 seeds at equal N, the across-seed variances of E[T] and
    # P(T > t) under pairs are at most plain MC's times the one-sided
    # 1 % F bound, F_0.99(39, 39) = scipy.stats.f.ppf(0.99, 39, 39).
    f_bound = 2.1352
    net, baselines = to_network(parse_sm(read_fixture("j120_fix_a.sm")))
    models = priors_from_baselines(baselines, 0.3)
    n_rep, seeds = 2048, range(1, 41)
    plain = np.array([_plain_mc_samples(net, models, s, n_rep) for s in seeds])
    paired = np.array([
        simulate(net, models, SimulationConfig(n_rep, s, 0.0)).samples for s in seeds
    ])
    target = float(np.quantile(plain, 0.9))  # t at plain MC's pooled q90
    for stat in (lambda x: x.mean(axis=1), lambda x: (x > target).mean(axis=1)):
        assert np.var(stat(paired), ddof=1) <= f_bound * np.var(stat(plain), ddof=1)
    # The F bound at 40 seeds cannot tell pairs from two copies of each
    # replicate, so also look at the pairs themselves. T is nondecreasing
    # in every z, so T(z) and T(-z) cannot correlate positively: replicates
    # 2m and 2m + 1 correlate at -0.24 for T and -0.05 for 1{T > q90} here
    # (standard error about 0.011); copies would correlate at +1.
    samples = simulate(net, models, SimulationConfig(16384, 1, 0.0)).samples
    over = (samples > np.quantile(samples, 0.9)).astype(float)
    for x in (samples, over):
        assert np.corrcoef(x[0::2], x[1::2])[0, 1] < 0


def test_buffers_kept_between_calls_never_enter_results(monkeypatch, fresh_pool):
    # A large call (3 sets, 40 activities, chunks of 128) leaves each
    # thread a workspace larger than the later calls need, full of its
    # values, and an overflowing call leaves it part-written.
    rng = np.random.default_rng(91)
    big_net = random_dag(rng, 40)
    big_sets = [priors_from_baselines(rng.integers(1, 9, size=40), s) for s in (0.2, 0.4, 0.6)]
    big_cfg = SimulationConfig(replicate_count=128 * 6 + 5, seed=8, target_completion=30.0)
    big_references = [
        _per_chunk_reference(big_net, m, 8, big_cfg.replicate_count, 128) for m in big_sets
    ]
    net, models = _mixed_models(73)
    cfg = SimulationConfig(replicate_count=64 * 4 + 9, seed=21, target_completion=20.0)
    reference = _per_chunk_reference(net, models, 21, cfg.replicate_count, 64)
    # the last live activity overflows from z ~ 0.28, in the second block
    overflowing = list(models)
    last_live = max(i for i, m in enumerate(models) if not isinstance(m, FrozenDuration))
    overflowing[last_live] = LognormalParams(mu=709.5, sigma=1.0)

    def large_call(workers):
        monkeypatch.setattr(simulate_module, "_CHUNK", 128)
        for r, ref in zip(simulate_many(big_net, big_sets, big_cfg, workers), big_references):
            _assert_matches(r, ref)

    def small_call(workers):
        monkeypatch.setattr(simulate_module, "_CHUNK", 64)
        _assert_matches(simulate(net, models, cfg, workers), reference)

    large_call(3)
    threads = threading.active_count()
    for workers in (1, 2, 3):
        large_call(workers)
        small_call(workers)
        with pytest.raises(NonFiniteResult, match=f"^activity {last_live}: "):
            simulate(net, overflowing, cfg, workers)
        small_call(workers)
        assert threading.active_count() == threads


def test_a_call_does_not_wait_for_a_busy_pool(monkeypatch, fresh_pool):
    # The pool's one thread waits on release, so the call's helper stays
    # queued; a call that waited for it would return only once the timer
    # sets release.
    release = threading.Event()
    timer = threading.Timer(10.0, release.set)
    timer.start()
    try:
        blocker = simulate_module._submit_helpers(release.wait, 1)
        net, models = _mixed_models(73)
        monkeypatch.setattr(simulate_module, "_CHUNK", 64)
        cfg = SimulationConfig(replicate_count=64 * 4 + 9, seed=21, target_completion=20.0)
        result = simulate(net, models, cfg, workers=2)
        returned_first = not release.is_set()
    finally:
        release.set()
        timer.cancel()
    assert returned_first
    assert not wait(blocker, timeout=10).not_done
    _assert_matches(result, _per_chunk_reference(net, models, 21, cfg.replicate_count, 64))


def test_the_callers_own_error_propagates_and_stops_the_helpers(monkeypatch, fresh_pool):
    # The calling thread's first chunk fails in the CPM pass; each helper
    # draw takes 50 ms, so without a stop the helpers would draw all 40.
    net = diamond()
    models = priors_from_baselines([1.0, 2.0, 2.0, 1.0], 0.3)
    chunk = 64
    caller = threading.current_thread()
    raised = threading.Event()
    lock = threading.Lock()
    late = {}  # chunk -> whether a helper first drew it after the caller raised
    finished = []  # one entry per helper draw that returned

    def fails_in_the_caller(*args, **kwargs):
        if threading.current_thread() is caller:
            raised.set()
            raise RuntimeError("the caller's chunk fails")
        return cpm_batch(*args, **kwargs)

    def slow_in_helpers(key, counters, out=None):
        if threading.current_thread() is caller:
            return normals(key, counters, out)
        with lock:
            # chunk c's first block reads its chunk / 2 pairs from counter 4 * c * chunk / 2
            late.setdefault(int(counters.flat[0]) // (2 * chunk), raised.is_set())
        time.sleep(0.05)
        out = normals(key, counters, out)
        finished.append(1)
        return out

    monkeypatch.setattr(simulate_module, "cpm_batch", fails_in_the_caller)
    monkeypatch.setattr(simulate_module, "normals", slow_in_helpers)
    monkeypatch.setattr(simulate_module, "_CHUNK", chunk)
    cfg = SimulationConfig(replicate_count=chunk * 40, seed=3, target_completion=5.0)
    with pytest.raises(RuntimeError, match="the caller's chunk fails"):
        simulate(net, models, cfg, workers=3)
    drawn = len(finished)
    time.sleep(0.2)
    assert len(finished) == drawn  # no helper was still drawing
    # a helper may take one chunk between the raise and the stop
    assert sum(late.values()) <= 2
    assert len(late) <= 4


def test_overflowing_draw_raises_non_finite_result():
    net = build_network(3, [(0, 1), (1, 2)])
    models = [
        FrozenDuration(1.0),
        LognormalParams(mu=709.0, sigma=0.3),  # exp overflows from z ~ 2.6
        FrozenDuration(0.0),
    ]
    cfg = SimulationConfig(replicate_count=5000, seed=4, target_completion=1.0)
    for workers in (1, 2):
        with pytest.raises(NonFiniteResult, match="activity 1"):
            simulate(net, models, cfg, workers=workers)


def _assert_same_forecast(a: ForecastResult, b: ForecastResult) -> None:
    for name in ForecastResult.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        else:
            assert x == y, name


def test_simulate_many_equals_one_simulate_per_set(monkeypatch):
    net, mixed = _mixed_models(79)
    other = priors_from_baselines(np.random.default_rng(80).integers(1, 9, size=17), 0.25)
    # with blocks of 3 rows: activities 6-8 are frozen in the first set
    # only, 3-5 in the second only, and the third set draws nothing
    first = [FrozenDuration(1.5) if i in (6, 7, 8) else m for i, m in enumerate(mixed)]
    second = [FrozenDuration(2.0) if i in (3, 4, 5) else m for i, m in enumerate(other)]
    frozen = [FrozenDuration(float(i % 4)) for i in range(17)]
    model_sets = [first, second, frozen, mixed, first]
    monkeypatch.setattr(simulate_module, "_CHUNK", 64)
    monkeypatch.setattr(simulate_module, "_BLOCK_ROWS", 3)
    cfg = SimulationConfig(replicate_count=64 * 5 + 9, seed=33, target_completion=18.0)
    alone = [simulate(net, models, cfg) for models in model_sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            joint = simulate_many(net, model_sets, cfg, workers=workers)
            assert len(joint) == len(model_sets)
            for a, b in zip(joint, alone):
                _assert_same_forecast(a, b)
    finally:
        sys.setswitchinterval(interval)
    assert simulate_many(net, [], cfg) == []


def test_simulate_many_overflow_in_a_later_set_names_its_activity():
    net = build_network(3, [(0, 1), (1, 2)])
    fine = priors_from_baselines([2.0, 3.0, 4.0], 0.3)
    overflowing = [
        FrozenDuration(1.0),
        FrozenDuration(2.0),
        LognormalParams(mu=709.0, sigma=0.3),  # exp overflows from z ~ 2.6
    ]
    cfg = SimulationConfig(replicate_count=5000, seed=4, target_completion=1.0)
    for workers in (1, 2):
        with pytest.raises(NonFiniteResult, match="activity 2"):
            simulate_many(net, [fine, overflowing], cfg, workers=workers)


@pytest.mark.parametrize("n_rep", [1, 2, 4097, 8193])
def test_forward_only_joint_pass_equals_the_full_pass(n_rep):
    # the first set has frozen rows, the third is frozen throughout, as
    # the point forecasts are; 4097 and 8193 end on a 1-wide chunk
    net, mixed = _mixed_models(73)
    other = priors_from_baselines(np.random.default_rng(74).integers(1, 9, size=17), 0.25)
    frozen = [FrozenDuration(float(i % 4)) for i in range(17)]
    all_sets = [mixed, other, frozen]
    references = [_per_chunk_reference(net, m, 21, n_rep, 63) for m in all_sets]
    cfg = SimulationConfig(replicate_count=n_rep, seed=21, target_completion=20.0)
    for count in (1, 2, 3):
        for workers in (1, 2, 3):
            full = simulate_many(net, all_sets[:count], cfg, workers)
            forward = simulate_many(net, all_sets[:count], cfg, workers, critical=False)
            for f, g, reference in zip(full, forward, references):
                _assert_matches(f, reference)
                assert g.samples.tobytes() == reference[0].tobytes()
                assert g.critical_probability is None and g.critical_counts is None
                for name in ("expected_completion", "completion_variance",
                             "delay_probability", "quantiles", "ci90_width"):
                    assert getattr(g, name) == getattr(f, name), name


def test_completion_overflow_in_a_later_set_raises_on_both_passes():
    net = build_network(3, [(0, 1), (1, 2)])
    fine = priors_from_baselines([2.0, 3.0, 4.0], 0.3)
    # every draw is finite; their sum along the path is not
    overflowing = [FrozenDuration(1e308), FrozenDuration(1e308), FrozenDuration(0.0)]
    cfg = SimulationConfig(replicate_count=5000, seed=4, target_completion=1.0)
    for critical in (True, False):
        for workers in (1, 2):
            with pytest.raises(NonFiniteResult, match="^a completion time overflows"):
                simulate_many(net, [fine, overflowing], cfg, workers, critical=critical)


def test_workspace_holds_two_matrices_per_set_or_four_with_criticality(monkeypatch):
    sizes = []
    workspace = simulate_module._workspace
    monkeypatch.setattr(
        simulate_module, "_workspace", lambda size: sizes.append(size) or workspace(size)
    )
    net, models = _mixed_models(73)
    cfg = SimulationConfig(replicate_count=100, seed=21, target_completion=20.0)
    counters = 16 * 2 * 51  # blocks of 16 rows, 51 pairs of 100 replicates
    for sets, critical, matrices in ((1, True, 4), (3, True, 12), (3, False, 6)):
        simulate_many(net, [models] * sets, cfg, critical=critical)
        assert sizes.pop() == matrices * 17 * 100 + counters


def _overflowing_at_top_draws(activities, monkeypatch, on_draw):
    """A diamond whose given branch activities each overflow only at
    their largest draw over 8 chunks of 64 replicates, run through a
    normals wrapper that calls on_draw(chunk index) first; the config and
    the chunk of each activity's overflow."""
    net = diamond()
    chunk, n_rep, seed = 64, 64 * 8, 4
    # replicates 2m and 2m + 1 read the pair normal at counters 4m.. and its negation
    pairs = normals(stream_key(seed, "sim"), np.arange(n_rep * 2)).reshape(n_rep // 2, 4)
    z = np.stack([pairs, -pairs], axis=1).reshape(n_rep, 4)
    models = priors_from_baselines([1.0, 2.0, 2.0, 0.0], 0.3)
    overflow_chunk = {}
    for i in activities:
        top, runner_up = np.sort(z[:, i])[[-1, -2]]
        # exp(mu + z) overflows where mu + z > ln(DBL_MAX) = 709.78...
        models[i] = LognormalParams(mu=709.782712893384 - (top + runner_up) / 2, sigma=1.0)
        overflow_chunk[i] = int(np.argmax(z[:, i])) // chunk

    def wrapped(key, counters, out=None):
        # chunk c's first block reads its chunk / 2 pairs from counter 4 * c * chunk / 2
        on_draw(int(counters.flat[0]) // (2 * chunk))
        return normals(key, counters, out)

    monkeypatch.setattr(simulate_module, "normals", wrapped)
    monkeypatch.setattr(simulate_module, "_CHUNK", chunk)
    cfg = SimulationConfig(replicate_count=n_rep, seed=seed, target_completion=1.0)
    return net, models, cfg, overflow_chunk


def test_first_failure_is_the_lowest_chunks_at_any_worker_count(monkeypatch):
    # One of activities 1 and 2 overflows in an earlier chunk than the
    # other, and that chunk draws slowly, so with more than one worker
    # the later chunk fails first.
    def slow_in_the_earlier_chunk(index):
        if index == overflow_chunk[first]:
            time.sleep(0.05)

    net, models, cfg, overflow_chunk = _overflowing_at_top_draws(
        (1, 2), monkeypatch, slow_in_the_earlier_chunk
    )
    first, later = sorted((1, 2), key=overflow_chunk.get)
    assert overflow_chunk[first] < overflow_chunk[later]
    for workers in (1, 2, 3):
        with pytest.raises(NonFiniteResult, match=f"^activity {first}: "):
            simulate(net, models, cfg, workers=workers)


def test_no_chunk_is_taken_after_a_failure(monkeypatch):
    # Every chunk but the failing one draws slowly, so the failure is
    # recorded while the other workers are still drawing.
    drawn = set()

    def slow_but_in_the_failing_chunk(index):
        drawn.add(index)
        if index != overflow_chunk[2]:
            time.sleep(0.02)

    net, models, cfg, overflow_chunk = _overflowing_at_top_draws(
        (2,), monkeypatch, slow_but_in_the_failing_chunk
    )
    for workers in (1, 2, 3):
        drawn.clear()
        with pytest.raises(NonFiniteResult, match="^activity 2: "):
            simulate(net, models, cfg, workers=workers)
        # each other worker finishes at most the chunk it holds, and may
        # have taken one more before the failure was recorded
        assert max(drawn) < overflow_chunk[2] + workers
