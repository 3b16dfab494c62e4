"""Acceptance gate: ten end-to-end checks, one test per numbered check.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per check;
each test also prints its own `acceptance NN ... PASS` summary (visible
with -s or -rP). Tolerances and runtime budgets are stated inline and
must not be loosened: a check that cannot hold fails loudly.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import FIXTURE_DIR, path_max, random_dag, read_fixture
from stoched.bayes import (
    ObservationRecord,
    PosteriorState,
    log_prior,
    map_update,
    marginal_log_likelihood,
)
from stoched.cli import EXIT_OK, main
from stoched.durations import (
    FrozenDuration,
    LognormalParams,
    expected_duration,
    from_baseline,
)
from stoched.errors import (
    CycleDetected,
    JobCountMismatch,
    MalformedDurationRow,
    MalformedHeader,
    MalformedPrecedenceRow,
)
from stoched.experiment import (
    GridConfig,
    derive_seeds,
    run_matrix,
)
from stoched.network import build_network, compute_cpm
from stoched.psplib import parse_sm, to_network
from stoched.rng import normals, stream_key
from stoched.simulate import SimulationConfig, sample_duration_matrix, simulate

WORKERS = 4
J30_PATH = str(FIXTURE_DIR / "j30_fix_a.sm")


@pytest.fixture(scope="module")
def j30():
    net, baselines = to_network(parse_sm(read_fixture("j30_fix_a.sm")))
    return net, baselines


@pytest.fixture(scope="module")
def table_rows(j30):
    """Moderate uncertainty, continuous updating, N=10,000, 10 seeds:
    the desk-scale replication grid shared by checks 05 and 06."""
    net, baselines = j30
    grid = GridConfig(
        instances=(("j30_fix_a", net, baselines),),
        seeds=tuple(derive_seeds(7, 10)),
        uncertainties=("moderate",),
        strategies=("continuous",),
        methods=(
            "deterministic_cpm",
            "static_mc",
            "bayes_no_propagation",
            "full_framework",
        ),
        replicate_count=10_000,
    )
    start = time.perf_counter()
    rows = run_matrix(grid, workers=WORKERS)
    return rows, time.perf_counter() - start


def median_rmse(rows, method):
    return float(np.median([r.rmse for r in rows if r.method == method]))


def test_01_completion_time_equals_path_maximum():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(50):
        net = random_dag(rng, int(rng.integers(2, 13)))
        durations = rng.integers(0, 10, size=net.activity_count).astype(np.float64)
        assert compute_cpm(net, durations).completion_time == path_max(net, durations)

    net = random_dag(rng, 10)
    per_activity = [from_baseline(float(d), 0.3) for d in rng.integers(1, 9, size=10)]
    cfg = SimulationConfig(replicate_count=100, seed=77, target_completion=30.0)
    result = simulate(net, per_activity, cfg)
    draws = sample_duration_matrix(net, per_activity, seed=77, row_start=0, row_stop=100)
    for k in range(100):
        assert result.samples[k] == pytest.approx(path_max(net, draws[:, k]), abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"acceptance 01 completion time equals path maximum: PASS ({elapsed:.1f}s)")


def test_02_two_activity_expectation_matches_quadrature():
    start = time.perf_counter()

    def grid_weights(mu: float, sigma: float, n: int = 2001):
        x = np.geomspace(math.exp(mu - 8 * sigma), math.exp(mu + 8 * sigma), n)
        w = np.empty(n)
        w[1:-1] = 0.5 * (x[2:] - x[:-2])
        w[0] = 0.5 * (x[1] - x[0])
        w[-1] = 0.5 * (x[-1] - x[-2])
        w *= stats.lognorm.pdf(x, s=sigma, scale=math.exp(mu))
        return x, w / w.sum()

    mu_x, mu_y = math.log(8.0) - 0.045, math.log(9.0) - 0.045
    x, wx = grid_weights(mu_x, 0.3)
    y, wy = grid_weights(mu_y, 0.3)
    oracle = float(wx @ np.maximum.outer(x, y) @ wy)

    net = build_network(2, [])
    per_activity = [LognormalParams(mu_x, 0.3), LognormalParams(mu_y, 0.3)]
    cfg = SimulationConfig(replicate_count=200_000, seed=1234, target_completion=10.0)
    result = simulate(net, per_activity, cfg, workers=WORKERS)

    rel = abs(result.expected_completion - oracle) / oracle
    assert rel < 0.005
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "acceptance 02 two-activity expectation vs quadrature: PASS "
        f"(mc={result.expected_completion:.4f}, oracle={oracle:.4f}, "
        f"rel={rel:.2e}, {elapsed:.1f}s)"
    )


def test_03_sample_mean_matches_lognormal_identity():
    start = time.perf_counter()
    n = 1_000_000
    for token, sigma in enumerate((0.1, 0.3, 0.5)):
        model = from_baseline(10.0, sigma)
        z = normals(stream_key(2024, "mean", token), np.arange(n))
        draws = np.exp(model.mu + model.sigma * z)
        true_mean = math.exp(model.mu + 0.5 * sigma * sigma)
        se = true_mean * math.sqrt(math.exp(sigma * sigma) - 1.0) / math.sqrt(n)
        assert abs(float(draws.mean()) - true_mean) < 4.0 * se
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"acceptance 03 lognormal mean identity at 3 sigma levels: PASS ({elapsed:.1f}s)")


def test_04_map_updates_match_grid_search_and_shrink():
    start = time.perf_counter()

    def grid_best(obs, prior, n=200):
        # exhaustive lower bound on the achievable objective
        best = -math.inf
        for mu in np.linspace(math.log(5.0), math.log(30.0), n):
            for sigma in np.linspace(1e-3, 1.5, n):
                theta = LognormalParams(float(mu), float(sigma))
                value = marginal_log_likelihood(theta, obs) + log_prior(theta, prior)
                best = max(best, value)
        return best

    # consensus case: many identical observations, vague location prior
    state = PosteriorState(from_baseline(10.0, 0.3), tau_mu=10.0)
    obs = [ObservationRecord(0, 14.0, 0.1) for _ in range(50)]
    post = map_update(state, obs)
    assert 13.5 <= expected_duration(post.params) <= 14.5
    achieved = marginal_log_likelihood(post.params, obs) + log_prior(
        post.params, state
    )
    assert achieved >= grid_best(obs, state) - 1e-3

    # dominance case: near-rigid location prior, single discordant record
    state = PosteriorState(
        LognormalParams(math.log(10.0) - 0.045, 0.3), tau_mu=0.01
    )
    obs = [ObservationRecord(0, 14.0, 1.0)]
    post = map_update(state, obs)
    assert expected_duration(post.params) == pytest.approx(10.0, rel=0.02)
    achieved = marginal_log_likelihood(post.params, obs) + log_prior(
        post.params, state
    )
    assert achieved >= grid_best(obs, state) - 1e-3

    # posterior pull: estimate sandwiched between prior mean and sample mean
    pull_cases = [
        ([11.0, 13.0, 16.0, 20.0, 26.0], 0.5),
        ([10.5, 14.0, 22.0], 0.5),
        ([28.0], 2.0),
        ([9.0, 7.5, 6.0], 0.4),
        ([8.0], 0.8),
        ([5.0, 6.5, 8.5, 4.5], 0.5),
    ]
    for values, noise_sd in pull_cases:
        state = PosteriorState(from_baseline(10.0, 0.3))
        post = map_update(state, [ObservationRecord(0, v, noise_sd) for v in values])
        e = expected_duration(post.params)
        lo, hi = sorted((10.0, float(np.mean(values))))
        assert lo - 1e-9 <= e <= hi + 1e-9

    # consistency: median error non-increasing at 5/20/80 observations, 20 seeds
    d_true, noise = 12.0, 0.25
    checkpoints = (5, 20, 80)
    errors = {k: [] for k in checkpoints}
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        state = PosteriorState(from_baseline(8.0, 0.3))
        consumed = 0
        for k in checkpoints:
            batch = [
                ObservationRecord(0, float(d_true + rng.normal(0.0, noise)), noise)
                for _ in range(k - consumed)
            ]
            state = map_update(state, batch)
            consumed = k
            errors[k].append(abs(expected_duration(state.params) - d_true))
    medians = [float(np.median(errors[k])) for k in checkpoints]
    assert medians[0] >= medians[1] >= medians[2]

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "acceptance 04 MAP vs grid search, pull, consistency: PASS "
        f"(medians={[round(m, 4) for m in medians]}, {elapsed:.1f}s)"
    )


def test_05_method_ranking_at_desk_scale(table_rows):
    rows, elapsed = table_rows
    det = median_rmse(rows, "deterministic_cpm")
    static = median_rmse(rows, "static_mc")
    bayes = median_rmse(rows, "bayes_no_propagation")
    full = median_rmse(rows, "full_framework")
    assert full < static < det
    assert full < bayes
    assert elapsed < 300.0
    print(
        "acceptance 05 median-RMSE ranking: PASS "
        f"(full={full:.2f} < static={static:.2f} < det={det:.2f}; "
        f"full={full:.2f} < bayes={bayes:.2f}; {elapsed:.1f}s)"
    )


def test_06_rmse_reduction_magnitude(table_rows):
    rows, _ = table_rows
    det = median_rmse(rows, "deterministic_cpm")
    full = median_rmse(rows, "full_framework")
    reduction = (det - full) / det
    assert reduction >= 0.40
    print(
        f"acceptance 06 median-RMSE reduction vs deterministic: PASS "
        f"({100 * reduction:.1f}% >= 40%)"
    )


def test_07_continuous_updating_tightens_intervals(j30):
    net, baselines = j30
    grid = GridConfig(
        instances=(("j30_fix_a", net, baselines),),
        seeds=tuple(derive_seeds(7, 10)),
        uncertainties=("moderate",),
        strategies=("none", "periodic", "continuous"),
        methods=("full_framework",),
        replicate_count=10_000,
    )
    start = time.perf_counter()
    rows = run_matrix(grid, workers=WORKERS)
    elapsed = time.perf_counter() - start
    ci90 = {
        strategy: float(
            np.median([r.ci90_width for r in rows if r.strategy == strategy])
        )
        for strategy in ("none", "periodic", "continuous")
    }
    assert ci90["continuous"] <= ci90["periodic"] <= ci90["none"]
    assert elapsed < 300.0
    print(
        "acceptance 07 interval width by updating cadence: PASS "
        f"(continuous={ci90['continuous']:.2f} <= periodic={ci90['periodic']:.2f} "
        f"<= none={ci90['none']:.2f}; {elapsed:.1f}s)"
    )


def test_08_criticality_sanity(j30):
    # symmetric diamond: identical lognormal branches between frozen dummies
    net = build_network(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    branch = from_baseline(5.0, 0.3)
    per_activity = [FrozenDuration(0.0), branch, branch, FrozenDuration(0.0)]
    cfg = SimulationConfig(replicate_count=10_000, seed=88, target_completion=6.0)
    r = simulate(net, per_activity, cfg)
    cp1, cp2 = float(r.critical_probability[1]), float(r.critical_probability[2])
    assert 0.47 <= cp1 <= 0.53
    assert 0.47 <= cp2 <= 0.53
    assert 1.0 <= cp1 + cp2 <= 1.0 + 2e-3
    assert r.critical_probability[0] == 1.0
    assert r.critical_probability[3] == 1.0

    # frozen diamond is exactly deterministic
    frozen = [FrozenDuration(v) for v in (2.0, 3.0, 5.0, 2.0)]
    rd = simulate(
        net, frozen, SimulationConfig(replicate_count=100, seed=1, target_completion=9.0)
    )
    assert np.array_equal(rd.critical_probability, [1.0, 0.0, 1.0, 1.0])

    # parsed instance: dummy endpoints lie on every path
    net30, baselines = j30
    priors = [from_baseline(float(d), 0.3) for d in baselines]
    r30 = simulate(
        net30,
        priors,
        SimulationConfig(replicate_count=2000, seed=5, target_completion=60.0),
    )
    assert r30.critical_probability[0] == 1.0
    assert r30.critical_probability[-1] == 1.0
    print(
        "acceptance 08 criticality sanity: PASS "
        f"(branch split {cp1:.3f}/{cp2:.3f}, dummies pinned at 1.0)"
    )


def test_09_experiment_csv_reproducible_across_thread_counts(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(
        f"instances = {J30_PATH}\n"
        "uncertainty = low\n"
        "strategy = none, continuous\n"
        "method = static_mc, full_framework\n"
        "replicate_count = 400\n"
        "seeds = 11 12\n"
    )
    digests = []
    for label, threads in (("t1", "1"), ("t8", "8"), ("t1b", "1")):
        out = tmp_path / label
        code = main(
            ["experiment", str(config), "--out", str(out), "--threads", threads]
        )
        assert code == EXIT_OK
        digests.append(hashlib.sha256((out / "results.csv").read_bytes()).hexdigest())
    capsys.readouterr()
    assert digests[0] == digests[1] == digests[2]
    print(
        "acceptance 09 byte-identical experiment CSV across 1/8 threads and "
        f"reruns: PASS (sha256={digests[0][:12]}...)"
    )


def test_10_parser_accepts_fixtures_and_rejects_corruptions():
    for name, jobs in (
        ("j30_fix_a.sm", 32),
        ("j30_fix_b.sm", 32),
        ("j60_fix_a.sm", 62),
        ("j60_fix_b.sm", 62),
        ("j120_fix_a.sm", 122),
        ("j120_fix_b.sm", 122),
    ):
        inst = parse_sm(read_fixture(name), instance_name=name)
        assert inst.job_count == jobs
        assert inst.durations[0] == 0 and inst.durations[-1] == 0
        net, _ = to_network(inst)  # construction proves acyclicity
        assert sorted(net.topo_order) == list(range(jobs))

    base = read_fixture("j30_fix_a.sm")
    corruptions = [
        (base.replace("jobs (incl. supersource/sink )", "jbs"), MalformedHeader),
        (base.encode().replace(b"jobs", b"j\xffbs"), MalformedHeader),
        (
            base.replace(
                "  29        1            1         32",
                "  29        1            1         33",
            ),
            MalformedPrecedenceRow,
        ),
        (
            base.replace(
                "   2     1        4     1    4    0   10",
                "   2     1       -4     1    4    0   10",
            ),
            MalformedDurationRow,
        ),
        (
            base.replace(
                "jobs (incl. supersource/sink ):  32",
                "jobs (incl. supersource/sink ):  33",
            ),
            JobCountMismatch,
        ),
        (
            base.replace(
                "  29        1            1         32",
                "  29        1            1          5",
            ),
            CycleDetected,
        ),
        (base[: base.index("REQUESTS/DURATIONS:") + 40], MalformedDurationRow),
    ]
    for text, error_cls in corruptions:
        with pytest.raises(error_cls):
            parse_sm(text)
    print(
        "acceptance 10 parser fixtures and corruption corpus: PASS "
        f"(6 fixtures, {len(corruptions)} corruptions)"
    )
