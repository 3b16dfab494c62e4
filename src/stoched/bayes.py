"""Recursive MAP updating of lognormal duration parameters.

Observations are noisy measurements of a realized duration,
O = D_true + eps with eps ~ Normal(0, noise_sd). The likelihood of one
observation under parameters theta marginalizes the unseen duration:

    P(O | theta) = integral Normal(O; d, noise_sd) * Lognormal(d; theta) dd

which has no closed form; it is evaluated by a fixed deterministic
trapezoid quadrature in d. The quadrature runs in plain numpy, on many
(theta, observation) rows in one call: its log-spaced nodes and its
log-sum-exp reproduce np.geomspace and scipy.special.logsumexp bit for
bit, without their per-call overhead. The prior over theta is Normal on
mu and Normal on ln sigma, centered at the state's own params. A MAP
update maximizes log-likelihood plus log-prior with Nelder-Mead in
(mu, ln sigma) space and returns a state at the new MAP estimate, so the
next update's prior is centered there; the consumed observations are
discarded, and memory per activity stays constant.

map_updates solves the updates of a whole cycle in one lockstep
Nelder-Mead: each stage of an iteration evaluates the probe points of
every unfinished problem in one quadrature call. Each problem follows,
bit for bit, the path that scipy 1.17.1's minimize(method="Nelder-Mead")
takes on it; the optimizer lives here, and scipy's is not imported.

Sampling after an update uses Lognormal(theta_MAP) directly (plug-in
predictive); parameter uncertainty around the MAP point is not
propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .durations import SIGMA_MIN, LognormalParams
from .errors import MixedActivities, ObservationFormatError, OptimizationFailed

DEFAULT_TAU_MU = 0.5
DEFAULT_TAU_LOG_SIGMA = 0.5

# Quadrature node budget: 65 log-spaced nodes covering the lognormal's
# mu +- 6 sigma span plus 64 linear nodes covering the observation's
# +- 6 noise_sd window. Two scales because either factor of the
# integrand can be much narrower than the other.
_LOG_NODES = 65
_LIN_NODES = 64
_ARANGE = np.arange(float(_LOG_NODES))
_RAMP = np.linspace(0.0, 1.0, _LIN_NODES)

# Box outside which the objective is treated as -inf; keeps exp() from
# overflowing while Nelder-Mead explores. _LOG_SPAN_MAX bounds the
# exponents of the quadrature span exp(mu +- 6 sigma) and of the MAP mean
# exp(mu + sigma^2/2); exp(700) is finite and exp(-700) nonzero.
_MU_BOUND = 200.0
_LOG_SIGMA_LO = -30.0
_LOG_SIGMA_HI = 20.0
_LOG_SPAN_MAX = 700.0

# Nelder-Mead as scipy's minimize runs it with options maxiter=500,
# xatol=1e-6 and fatol=1e-8: reflection, expansion, contraction and
# shrink coefficients 1, 2, 0.5 and 0.5, a first simplex that moves each
# coordinate by 5% (to 0.00025 from zero), no cap on evaluations.
_NM_MAXITER = 500
_NM_XATOL = 1e-6
_NM_FATOL = 1e-8

_GRID_SIZE = 41  # fallback grid is 41 x 41

# Observation rows per quadrature call, unless one point has more: keeps
# each of its (rows x 129) arrays to a few MB however many points a call
# evaluates.
_BLOCK_ROWS = 4096

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ObservationRecord:
    activity: int
    observed_duration: float  # may be <= 0: noise is Gaussian
    noise_sd: float  # > 0

    def __post_init__(self) -> None:
        if self.activity < 0:
            raise ValueError(f"activity index must be >= 0, got {self.activity}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd > 0):
            raise ValueError(f"noise_sd must be finite and > 0, got {self.noise_sd}")
        if not math.isfinite(self.observed_duration):
            raise ValueError(
                f"observed duration must be finite, got {self.observed_duration}"
            )


@dataclass(frozen=True)
class PosteriorState:
    """Lognormal params and the prior of the next update, which is
    centered at params: mu ~ Normal(params.mu, tau_mu) and
    ln sigma ~ Normal(ln params.sigma, tau_log_sigma). A new state is the
    initial state, and an update with no observations is a fixpoint."""

    params: LognormalParams
    observation_count: int = 0
    tau_mu: float = DEFAULT_TAU_MU
    tau_log_sigma: float = DEFAULT_TAU_LOG_SIGMA


def _validate_records(obs: Sequence[ObservationRecord]) -> None:
    activities = {o.activity for o in obs}
    if len(activities) > 1:
        raise MixedActivities(
            f"observation batch spans activities {sorted(activities)}"
        )


class _Terms(NamedTuple):
    """The quadrature terms that depend on the observations only, one
    entry per observation row."""

    values: np.ndarray
    noise: np.ndarray
    hi: np.ndarray  # values + 6 noise: top of the noise window
    lo: np.ndarray  # values - 6 noise
    usable: np.ndarray  # the noise window reaches the positive axis
    log_norm: np.ndarray  # log of the normal density's constant factor

    @classmethod
    def of(cls, records: Sequence[ObservationRecord]) -> "_Terms":
        values = np.array([o.observed_duration for o in records])
        noise = np.array([o.noise_sd for o in records])
        hi = values + 6.0 * noise
        lo = values - 6.0 * noise
        return cls(values, noise, hi, lo, hi > 0, -np.log(noise) - _LOG_SQRT_2PI)


def marginal_log_likelihood(
    theta: LognormalParams, obs: Sequence[ObservationRecord]
) -> float:
    """Sum over observations of the log marginal likelihood under theta.

    Empty input is 0 (vacuous product). The per-observation integrals are
    summed with exact (correctly rounded) accumulation, so the result is
    invariant under permutation of the observation list.
    """
    _validate_records(obs)
    if not obs:
        return 0.0
    rows = _quadrature(_Terms.of(obs), [theta.mu], [theta.sigma], [len(obs)])
    return math.fsum(rows.tolist())


def _quadrature(
    terms: _Terms, mus: list[float], sigmas: list[float], counts
) -> np.ndarray:
    """Log marginal likelihood of each row of terms: the first counts[0]
    rows under (mus[0], sigmas[0]), the next counts[1] under the second
    point, and so on."""
    lo_ln = [math.exp(mu - 6.0 * sigma) for mu, sigma in zip(mus, sigmas)]
    if 0.0 in lo_ln:
        raise ValueError("Geometric sequence cannot include zero")
    hi_ln = [math.exp(mu + 6.0 * sigma) for mu, sigma in zip(mus, sigmas)]
    log_sigmas = [math.log(sigma) for sigma in sigmas]
    # One point, as marginal_log_likelihood asks: broadcasting its scalars
    # saves about a fifth of a call on one to three rows.
    if len(counts) == 1:
        mu, sigma, lo_ln, log_sigma = mus[0], sigmas[0], lo_ln[0], log_sigmas[0]
        log_spaced = _geomspace(lo_ln, hi_ln[0])
    else:
        per_point = np.array([mus, sigmas, lo_ln, hi_ln, log_sigmas])[:, :, None]
        log_spaced = np.repeat(_geomspace(per_point[2], per_point[3]), counts, axis=0)
        mu, sigma, lo_ln, _, log_sigma = np.repeat(per_point, counts, axis=1)
        lo_ln = lo_ln[:, 0]
    values, noise, hi_ob, lo_ob, usable, log_norm = terms
    m = values.shape[0]
    # Zero weights (duplicate nodes) and tiny noise sds (z_n^2 overflowing)
    # both give terms of exactly -inf, which _logsumexp_rows drops.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Linear nodes across each observation's noise window, clipped to
        # the positive axis. A window entirely at or below zero collapses
        # onto lo_ln; the resulting duplicate nodes get zero trapezoid
        # weight.
        floor = np.minimum(lo_ln, np.where(usable, hi_ob, lo_ln)) * 1e-9
        start = np.where(usable, np.maximum(lo_ob, floor), lo_ln)
        stop = np.where(usable, hi_ob, lo_ln)

        # Sorted nodes between copies of the end nodes: a node's trapezoid
        # weight is half the gap between its two neighbours, and an end
        # node stands in for its own missing neighbour.
        padded = np.empty((m, _LOG_NODES + _LIN_NODES + 2))
        nodes = padded[:, 1:-1]
        nodes[:, :_LOG_NODES] = log_spaced
        nodes[:, _LOG_NODES:] = start[:, None] + (stop - start)[:, None] * _RAMP
        nodes.sort(axis=1)
        padded[:, 0] = nodes[:, 0]
        padded[:, -1] = nodes[:, -1]
        weights = 0.5 * (padded[:, 2:] - padded[:, :-2])

        # log_normal + log_lognormal + log_w, evaluated in place in that
        # order: log_lognormal = -log_d - log_sigma - C - 0.5 z_ln^2 and
        # log_normal = log_norm - 0.5 z_n^2.
        log_d = np.log(nodes)
        z = log_d - mu
        z /= sigma
        total = np.negative(log_d, out=log_d)
        total -= log_sigma
        total -= _LOG_SQRT_2PI
        total -= np.multiply(z, 0.5) * z
        z = np.subtract(values[:, None], nodes)
        z /= noise[:, None]
        log_normal = np.subtract(log_norm[:, None], np.multiply(z, 0.5) * z)
        total += log_normal
        total += np.log(weights, out=weights)
        return _logsumexp_rows(total)


def _geomspace(lo, hi) -> np.ndarray:
    """np.geomspace(lo, hi, _LOG_NODES) for 0 < lo <= hi, or one such row
    for each row of (k, 1) columns lo and hi, by the same operations in
    the same order: linspace between the log10 ends, a power of ten, then
    both ends pinned to lo and hi. Two linspace steps cannot change the
    result and are left out: pinning its last point (hi overwrites it) and
    its branch for a step that underflows to 0 (a difference of log10
    values is then exactly 0, and both branches give l0 everywhere)."""
    l0 = np.log10(lo)
    y = _ARANGE * ((np.log10(hi) - l0) / (_LOG_NODES - 1)) + l0
    out = np.power(10.0, y)
    out[..., :1] = lo
    out[..., -1:] = hi
    return out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=1) for a real C-contiguous 2-D array,
    by the same operations: each row's maxima are counted and split out of
    the shifted sum, and a row whose result is not finite falls back to
    log(sum(exp(row))). Callers ignore divide and invalid warnings."""
    a_max = a.max(axis=1, keepdims=True)
    tied = a == a_max
    m = tied.sum(axis=1, dtype=np.float64)
    shifted = a - a_max
    shifted[tied] = -np.inf
    s = np.exp(shifted, out=shifted).sum(axis=1)
    s = np.where(s == 0, s, s / m)
    out = np.log1p(s) + np.log(m) + a_max[:, 0]
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def log_prior(theta: LognormalParams, state: PosteriorState) -> float:
    """Normal log-density on mu plus Normal log-density on ln sigma, both
    centered at state.params."""
    z_mu = (theta.mu - state.params.mu) / state.tau_mu
    z_ls = (math.log(theta.sigma) - math.log(state.params.sigma)) / state.tau_log_sigma
    return (
        -0.5 * z_mu * z_mu
        - math.log(state.tau_mu)
        - _LOG_SQRT_2PI
        - 0.5 * z_ls * z_ls
        - math.log(state.tau_log_sigma)
        - _LOG_SQRT_2PI
    )


class _Problems:
    """The MAP objectives of (state, records) pairs, each records batch
    non-empty, evaluated many points at a time. The observation terms of
    all pairs are computed once, rows concatenated in pair order."""

    def __init__(self, pairs: Sequence[tuple[PosteriorState, tuple]]) -> None:
        self.states = [state for state, _ in pairs]
        self.x0 = np.array(
            [[s.params.mu, math.log(s.params.sigma)] for s in self.states]
        )
        self.counts = [len(obs) for _, obs in pairs]
        ends = np.cumsum(self.counts)
        self.rows = [np.arange(end - n, end) for n, end in zip(self.counts, ends)]
        self.terms = _Terms.of([o for _, obs in pairs for o in obs])

    def objectives(self, ids: Sequence[int], x: np.ndarray) -> list[float]:
        """Log-likelihood plus log-prior of problem ids[k] at
        x[k] = (mu, ln sigma), -inf outside the box. The points in the box
        share one quadrature call per _BLOCK_ROWS observation rows."""
        values = [-math.inf] * len(x)
        kept, problems, mus, sigmas = [], [], [], []
        for k, (p, (mu, log_sigma)) in enumerate(zip(ids, x.tolist())):
            if abs(mu) > _MU_BOUND or not _LOG_SIGMA_LO <= log_sigma <= _LOG_SIGMA_HI:
                continue
            sigma = math.exp(log_sigma)
            if abs(mu) + 6.0 * sigma > _LOG_SPAN_MAX:
                continue
            kept.append(k)
            problems.append(p)
            mus.append(mu)
            sigmas.append(sigma)
        counts = [self.counts[p] for p in problems]
        per_row: list[float] = []
        block = max(1, _BLOCK_ROWS // max(self.counts))
        for i in range(0, len(kept), block):
            rows = np.concatenate([self.rows[p] for p in problems[i : i + block]])
            terms = _Terms(*(term[rows] for term in self.terms))
            per_row += _quadrature(
                terms, mus[i : i + block], sigmas[i : i + block], counts[i : i + block]
            ).tolist()
        end = 0
        for k, p, mu, sigma, count in zip(kept, problems, mus, sigmas, counts):
            end += count
            theta = LognormalParams(mu=mu, sigma=sigma)
            values[k] = math.fsum(per_row[end - count : end]) + log_prior(
                theta, self.states[p]
            )
        return values

    def negated(self, ids: Sequence[int], x: np.ndarray) -> np.ndarray:
        return -np.array(self.objectives(ids, x))


def _sorted(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each simplex ordered by its values, as scipy's argsort and take."""
    ind = np.argsort(fsim, axis=1)
    rows = np.arange(len(fsim))[:, None]
    return sim[rows, ind], fsim[rows, ind]


def _nelder_mead(problems: _Problems) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize the negated objective of every problem from its x0, in
    lockstep: one evaluation call per stage of an iteration (reflection;
    expansion or contraction; shrink) covers every problem at that stage.
    Each problem takes the steps, comparisons and tie order of scipy's
    Nelder-Mead, so its (x, fun, success) are scipy's to the last bit.
    Returns the best vertices (P, 2), their values, and whether each
    problem converged before _NM_MAXITER iterations."""
    count = len(problems.x0)
    sim = np.repeat(problems.x0[:, None, :], 3, axis=1)
    for k in (0, 1):
        x = sim[:, k + 1, k]
        sim[:, k + 1, k] = np.where(x != 0, (1 + 0.05) * x, 0.00025)
    fsim = problems.negated(
        [p for p in range(count) for _ in range(3)], sim.reshape(-1, 2)
    ).reshape(count, 3)
    sim, fsim = _sorted(*_sorted(sim, fsim))  # scipy sorts the first simplex twice
    # The working arrays hold the unfinished problems, active[i] being row i.
    active = np.arange(count)
    x_best, f_min = np.empty((count, 2)), np.empty(count)
    converged = np.zeros(count, dtype=bool)
    # A simplex that sees only +inf subtracts inf from inf in its
    # convergence test; map_updates sends that case to the grid fallback.
    with np.errstate(invalid="ignore"):
        for _ in range(1, _NM_MAXITER):
            done = (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _NM_XATOL) & (
                np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= _NM_FATOL
            )
            if done.any():
                finished = active[done]
                converged[finished] = True
                x_best[finished], f_min[finished] = sim[done, 0], fsim[done].min(axis=1)
                going = ~done
                active, sim, fsim = active[going], sim[going], fsim[going]
                if not active.size:
                    break
            ids = active.tolist()

            xbar = np.add.reduce(sim[:, :-1], 1) / 2
            worst = sim[:, -1]
            xr = 2 * xbar - worst
            fxr = problems.negated(ids, xr)
            expand = fxr < fsim[:, 0]
            reflect = ~expand & (fxr < fsim[:, -2])
            outside = ~expand & ~reflect & (fxr < fsim[:, -1])
            inside = ~expand & ~reflect & ~outside
            # Expansion, outside contraction or inside contraction point.
            probe = np.where(
                expand[:, None],
                3 * xbar - 2 * worst,
                np.where(outside[:, None], 1.5 * xbar - 0.5 * worst, 0.5 * xbar + 0.5 * worst),
            )
            probed = np.flatnonzero(~reflect)
            fprobe = np.full(len(ids), np.nan)
            fprobe[probed] = problems.negated([ids[i] for i in probed], probe[probed])
            take_probe = (
                (expand & (fprobe < fxr))
                | (outside & (fprobe <= fxr))
                | (inside & (fprobe < fsim[:, -1]))
            )
            take_xr = reflect | (expand & ~take_probe)
            sim[:, -1] = np.where(
                take_xr[:, None], xr, np.where(take_probe[:, None], probe, worst)
            )
            fsim[:, -1] = np.where(take_xr, fxr, np.where(take_probe, fprobe, fsim[:, -1]))
            shrink = np.flatnonzero((outside | inside) & ~take_probe)
            if shrink.size:
                best = sim[shrink, :1]
                shrunk = best + 0.5 * (sim[shrink, 1:] - best)
                sim[shrink, 1:] = shrunk
                fsim[shrink, 1:] = problems.negated(
                    [ids[i] for i in shrink for _ in range(2)], shrunk.reshape(-1, 2)
                ).reshape(-1, 2)
            sim, fsim = _sorted(sim, fsim)
    x_best[active], f_min[active] = sim[:, 0], fsim.min(axis=1)
    return x_best, f_min, converged


def map_updates(
    pairs: Sequence[tuple[PosteriorState, Sequence[ObservationRecord]]],
) -> list[PosteriorState]:
    """map_update(state, records) of each pair, in pair order.

    The pairs with records are solved together in one lockstep
    Nelder-Mead; then each result is checked in pair order, so the first
    pair that fails raises.
    """
    pairs = [(state, tuple(obs)) for state, obs in pairs]
    for _, obs in pairs:
        _validate_records(obs)
    solving = [(state, obs) for state, obs in pairs if obs]
    posteriors = iter(_solve(solving) if solving else ())
    return [next(posteriors) if obs else state for state, obs in pairs]


def _solve(pairs: list[tuple[PosteriorState, tuple]]) -> list[PosteriorState]:
    problems = _Problems(pairs)
    xs, funs, converged = _nelder_mead(problems)
    out = []
    for p, (state, obs) in enumerate(pairs):
        best_mu, best_log_sigma = float(xs[p, 0]), float(xs[p, 1])
        best_value = -float(funs[p])
        if not (converged[p] and math.isfinite(best_value)):
            grid_mu, grid_log_sigma, grid_value = _grid_argmax(problems, p)
            if not math.isfinite(best_value) or grid_value > best_value:
                best_mu, best_log_sigma, best_value = grid_mu, grid_log_sigma, grid_value
            if not math.isfinite(best_value):
                raise OptimizationFailed(
                    "MAP objective is non-finite at every probe point"
                )
        if best_mu + 0.5 * math.exp(2.0 * best_log_sigma) > _LOG_SPAN_MAX:
            raise OptimizationFailed(
                f"MAP estimate mu={best_mu:.6g}, sigma={math.exp(best_log_sigma):.6g} "
                "has a mean duration too large to represent"
            )
        params = LognormalParams(
            mu=best_mu, sigma=max(math.exp(best_log_sigma), SIGMA_MIN)
        )
        out.append(
            PosteriorState(
                params,
                state.observation_count + len(obs),
                state.tau_mu,
                state.tau_log_sigma,
            )
        )
    return out


def map_update(
    state: PosteriorState, new_obs: Sequence[ObservationRecord]
) -> PosteriorState:
    """Posterior state after absorbing a batch of observations.

    params becomes the argmax of marginal_log_likelihood + log_prior; the
    new state keeps the taus, so its prior is centered at the new params,
    and the consumed observations are discarded. An empty batch returns
    the state unchanged: the prior's argmax is its own center.
    A Nelder-Mead result that is non-finite or did not converge is
    checked against a coarse grid search, and the better point is kept.
    Raises OptimizationFailed when the objective is non-finite everywhere
    or the MAP mean duration exp(mu + sigma^2/2) would overflow.
    """
    return map_updates([(state, new_obs)])[0]


def _grid_argmax(problems: _Problems, p: int) -> tuple[float, float, float]:
    """Coarse grid fallback around problem p's starting point, all points
    in one objective call. Points are taken mu-major and a point must beat
    the best so far strictly, so the first of tied points wins and NaN
    never does."""
    x0 = problems.x0[p]
    mus = np.linspace(x0[0] - 3.0, x0[0] + 3.0, _GRID_SIZE)
    log_sigmas = np.linspace(math.log(1e-3), math.log(2.0), _GRID_SIZE)
    points = np.column_stack(
        [np.repeat(mus, _GRID_SIZE), np.tile(log_sigmas, _GRID_SIZE)]
    )
    values = problems.objectives([p] * len(points), points)
    best = (float(x0[0]), float(x0[1]), -math.inf)
    for (mu, log_sigma), value in zip(points.tolist(), values):
        if value > best[2]:
            best = (mu, log_sigma, value)
    return best


def parse_observation_text(text: str) -> list[tuple[int, ObservationRecord]]:
    """Parse observation records, one per line:

        activity_index observed_duration noise_sd

    whitespace-separated decimals; blank lines and '#' comments ignored.
    Returns (line_number, record) pairs so callers can report positions.
    """
    records: list[tuple[int, ObservationRecord]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ObservationFormatError(
                f"line {lineno}: expected 'activity observed noise_sd', got {raw!r}"
            )
        try:
            activity = int(tokens[0])
            observed = float(tokens[1])
            noise_sd = float(tokens[2])
        except ValueError as exc:
            raise ObservationFormatError(
                f"line {lineno}: non-numeric field in {raw!r}"
            ) from exc
        try:
            record = ObservationRecord(activity, observed, noise_sd)
        except ValueError as exc:
            raise ObservationFormatError(f"line {lineno}: {exc}") from exc
        records.append((lineno, record))
    return records
