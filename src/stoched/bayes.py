"""Recursive MAP updating of lognormal duration parameters.

Observations are noisy measurements of an activity's one realized
duration D, O_j = D + eps_j with eps_j ~ Normal(0, s_j). Under Gaussian
noise an activity's records multiply to one record's likelihood,

    prod_j Normal(O_j; d, s_j) = C * Normal(O_bar; d, s_bar),

with O_bar their precision-weighted mean, s_bar = (sum_j s_j^-2)^(-1/2)
and C free of d and theta. The likelihood of that combined record
marginalizes the unseen duration over y = ln d:

    P(O_bar | theta) = integral Normal(O_bar; e^y, s_bar) * Normal(y; mu, sigma) dy

It is evaluated by adaptive Gauss-Hermite quadrature (Liu & Pierce 1994)
around the integrand's mode, with a half-range rule on each side: below
the mode scaled to span the prior's shoulder, above it spaced to follow
the observation factor's cut-off. Where the integrand has a second local
maximum (possible only if O / noise_sd > 2 sqrt(2) / sigma), a second node
set sits there and a mixture rule splits the integrand between the two.
Nodes carry their offset to the mode, so as noise_sd shrinks the result
tends to log Lognormal(O; theta). It is smooth in theta, and computed row
by row: no step reduces across rows.

The prior over theta is Normal on mu and Normal on ln sigma, centered at
an activity's initial params. A PosteriorState keeps that prior and the
combined record so far, so its size is constant, and each update is a
one-row MAP from that prior, whatever the batching or order of records
(up to the rounding of their combination). map_updates solves the
updates of many activities in one damped Newton iteration, one
quadrature call per iteration, with a coarse grid search for a problem
that does not converge.

Sampling after an update uses Lognormal(theta_MAP) directly (plug-in
predictive); parameter uncertainty around the MAP point is not
propagated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .durations import SIGMA_MIN, LognormalParams
from .errors import MixedActivities, ObservationFormatError, OptimizationFailed

DEFAULT_TAU_MU = 0.5
DEFAULT_TAU_LOG_SIGMA = 0.5

# The 16-point Gauss rule for integral_0^inf e^(-u^2) f(u) du, the
# half-range Gauss-Hermite rule (test_bayes derives it by the Stieltjes
# procedure and Golub-Welsch). Side node k sits at center +- c u_k; its log
# weight undoes the rule's exp(-u_k^2).
_HALF_NODES = np.array([
    0.01975365846007028, 0.1028022452379077, 0.2473976694524491, 0.4466962259616765,
    0.6930737203019933, 0.9794041703307249, 1.299789321277031, 1.6498542403974288,
    2.0268081521688623, 2.4294504916021387, 2.858266528543264, 3.3157692750386945,
    3.807377116755895, 4.3436063454701666, 4.946377204048383, 5.67501793404192,
])
_HALF_WEIGHTS = np.array([
    0.05052463202137848, 0.11360855689414931, 0.16292129231454022, 0.18356280111624768,
    0.16543863775561207, 0.11657249055350326, 0.061999696099157744, 0.023919709618684108,
    0.006409914424050282, 0.0011356953106888077, 0.0001252862213295646,
    7.95049571962269e-06, 2.5900076194151385e-07, 3.6115491397429436e-09,
    1.5376779161898802e-11, 8.674204452494902e-15,
])
_SQUARES = np.tile(_HALF_NODES * _HALF_NODES, 2)  # lower side, then upper
_LOG_WEIGHTS = np.tile(np.log(_HALF_WEIGHTS), 2) + _SQUARES
_PROBES = np.array([1.5, 3.0, 6.0, 12.0])  # in curvature scales
_LOG_RATIO_MAX = 230.0  # cap on ln(O / noise_sd): the noiseless limit
_MODE_MAXITER = 100
_MODE_TOL = 1e-7  # in curvature scales

# The objective is -inf outside this box; _LOG_SPAN_MAX bounds the
# exponents of exp(mu +- 6 sigma) and of the MAP mean exp(mu + sigma^2/2).
_MU_BOUND = 200.0
_LOG_SIGMA_LO = -30.0
_LOG_SIGMA_HI = 20.0
_LOG_SPAN_MAX = 700.0

# Newton in (mu, ln sigma) on central differences of step _STENCIL (the
# last point gives the cross term); a proposed step below _STEP_TOL ends it.
_NEWTON_MAXITER = 100
_STENCIL = 1e-4
_STEP_TOL = 1e-9
_STENCIL_POINTS = _STENCIL * np.array(
    [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]]
)

_GRID_SIZE = 41  # fallback grid is 41 x 41

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
    """An activity's MAP params; its prior, mu ~ Normal(prior.mu, tau_mu)
    and ln sigma ~ Normal(ln prior.sigma, tau_log_sigma), with prior
    defaulting to params in an initial state; and evidence, the combined
    record of its observation_count measurements (None before the first).
    An update with no observations is a fixpoint."""

    params: LognormalParams
    observation_count: int = 0
    tau_mu: float = DEFAULT_TAU_MU
    tau_log_sigma: float = DEFAULT_TAU_LOG_SIGMA
    prior: LognormalParams | None = None
    evidence: ObservationRecord | None = None

    def __post_init__(self) -> None:
        if self.prior is None:
            object.__setattr__(self, "prior", self.params)


def _combine(obs: Sequence[ObservationRecord]) -> ObservationRecord:
    """The record whose likelihood in d is proportional to the product of
    the records' (non-empty, of one activity): their precision-weighted
    mean, with noise_sd (sum of s^-2)^(-1/2). Weights (s_min / s)^2 keep a
    lone record as it is; the mean, a correctly rounded convex combination
    of values over their largest magnitude, cannot overflow or depend on
    record order."""
    activities = sorted({o.activity for o in obs})
    if len(activities) > 1:
        raise MixedActivities(f"observation batch spans activities {activities}")
    values = [o.observed_duration for o in obs]
    s_min = min(o.noise_sd for o in obs)
    weights = [(s_min / o.noise_sd) ** 2 for o in obs]
    total = math.fsum(weights)
    scale = max(map(abs, values)) or 1.0
    mean = scale * math.fsum(w / total * (v / scale) for w, v in zip(weights, values))
    mean = min(max(mean, min(values)), max(values))  # rounding may step outside
    noise = max(s_min / math.sqrt(total), math.ulp(0.0))
    return ObservationRecord(obs[0].activity, mean, noise)


class _Frame:
    """Each row's integrand in t = y - y_ref, as h(t) = -z^2/2 - p^2/2 with
    z = z0 - A expm1(t) the standardized observation residual and
    p = (t + b) / sigma the prior's. A sharp row (O > noise_sd) takes
    y_ref = ln O, so z0 = 0 and z is exact for tiny noise; the others take
    y_ref = mu clipped to [ln noise_sd - 700, ln noise_sd], so A <= 1. Every
    stationary point of h lies in [lo, hi]: between ln O and mu for O > 0,
    below mu otherwise."""

    def __init__(self, values, noise, mu, sigma) -> None:
        self.sharp = values > noise
        positive = values > 0
        log_values = np.log(np.where(positive, values, 1.0))
        log_noise = np.log(noise)
        floor = 2.0 * log_noise - np.log(np.abs(values) + noise)
        log_noise = np.where(
            self.sharp, np.maximum(log_noise, log_values - _LOG_RATIO_MAX), log_noise
        )
        log_sigma = np.log(sigma)
        self.ratio = values / np.exp(log_noise)
        y_ref = np.where(self.sharp, log_values, np.clip(mu, log_noise - 700.0, log_noise))
        self.log_a = y_ref - log_noise
        self.a = np.exp(self.log_a)
        self.z0 = np.where(self.sharp, 0.0, self.ratio - self.a)
        self.b = y_ref - mu
        self.sigma = sigma
        self.prec = 1.0 / (sigma * sigma)
        self.log_norm = -log_noise - log_sigma - 2.0 * _LOG_SQRT_2PI
        y_lo = np.minimum(np.minimum(mu - 1.0, log_noise), floor - 2.0 * log_sigma)
        self.lo = np.where(positive, np.minimum(log_values, mu), y_lo) - y_ref
        self.hi = np.where(positive, np.maximum(log_values, mu), mu) - y_ref

    def take(self, rows) -> "_Frame":
        sub = object.__new__(_Frame)
        sub.__dict__.update((name, array[rows]) for name, array in vars(self).items())
        return sub

    def slopes(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h'(t) and h''(t)."""
        ae = self.a * np.exp(t)
        z = self.z0 - self.a * np.expm1(t)
        return z * ae - (t + self.b) * self.prec, z * ae - ae * ae - self.prec


def _mode(frame: _Frame, lo: np.ndarray, hi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The root of h' in [lo, hi], on which h' decreases from >= 0 to
    <= 0, from the start t: Newton steps, and bisection where a step would
    leave the bracket or not halve the step before it. A row stops once its
    own step is below _MODE_TOL curvature scales."""
    t = np.clip(t, lo, hi)
    lo, hi = lo.copy(), hi.copy()
    last = hi - lo
    going = np.ones(t.shape, dtype=bool)
    for _ in range(_MODE_MAXITER):
        slope, curvature = frame.slopes(t)
        up = slope > 0
        np.copyto(lo, t, where=going & up)
        np.copyto(hi, t, where=going & ~up)
        new = t - slope / curvature
        newton = (new > lo) & (new < hi) & (np.abs(new - t) <= 0.5 * last)
        new = np.where(slope == 0, t, np.where(newton, new, 0.5 * (lo + hi)))
        moved = np.abs(new - t)
        np.copyto(t, new, where=going)
        np.copyto(last, moved, where=going)
        going &= moved * np.sqrt(-curvature) > _MODE_TOL
        if not going.any():
            break
    return t


class _Center:
    """The integrand around each row's center t: h(t), the curvature
    scale (-h''(t))^(-1/2), at most 10 sigma (h'' is 0 where a second
    maximum appears), and h(t + d) - h(t) for offsets d (rows, k) from
    the offsets alone, so that no node loses its observation factor to
    rounding however narrow the integrand is."""

    def __init__(self, frame: _Frame, t: np.ndarray) -> None:
        self.frame, self.t = frame, t
        self.ae = frame.a * np.exp(t)
        self.z = frame.z0 - frame.a * np.expm1(t)
        self.p = t + frame.b
        self.h = -0.5 * self.z * self.z - 0.5 * self.p * self.p * frame.prec
        measured = self.ae * (self.ae - self.z)
        self.scale = 1.0 / np.sqrt(np.maximum(measured + frame.prec, 0.01 * frame.prec))
        # the observation factor's share of the curvature
        self.bend = np.clip(measured / (measured + frame.prec), 0.0, 1.0)

    def stretch(self, x: np.ndarray) -> np.ndarray:
        """Offsets in y of the upper nodes at x, log1p(bend x) / bend: nodes
        evenly spaced in x are evenly spaced in y at bend 0, in d at 1."""
        q = self.bend[:, None] * x
        return x * np.where(q > 0, np.log1p(q) / q, 1.0)

    def rise(self, d: np.ndarray) -> np.ndarray:
        dz = -self.ae[:, None] * np.expm1(d)
        out = -0.5 * dz * (2.0 * self.z[:, None] + dz)
        out -= d * (self.p[:, None] + 0.5 * d) * self.frame.prec[:, None]
        return out


def _node_sums(at: _Center, lower, upper, other: _Center | None = None) -> np.ndarray:
    """Log integral of the integrand, with both densities' constants, by
    half-range rules below and above each row's center, of scales lower
    and upper. other is a second node set on the same rows: the mixture
    rule then gives this set the share of the integrand that its Gaussian
    fit holds of the two."""
    up = upper[:, None] * _HALF_NODES
    d = np.concatenate([-lower[:, None] * _HALF_NODES, at.stretch(up)], axis=1)
    terms = at.rise(d) + _LOG_WEIGHTS
    terms[:, : _HALF_NODES.size] += np.log(lower)[:, None]
    terms[:, _HALF_NODES.size :] += np.log(upper)[:, None] - np.log1p(at.bend[:, None] * up)
    if other is not None:
        fit = ((at.t - other.t)[:, None] + d) / other.scale[:, None]
        terms -= np.logaddexp(0.0, (other.h - at.h)[:, None] - 0.5 * fit * fit + _SQUARES)
    peak = np.max(terms, axis=1)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    total = np.log(np.exp(terms - peak[:, None]).sum(axis=1)) + peak
    return np.where(at.h == -math.inf, -math.inf, at.h + total + at.frame.log_norm)


def _side_scales(at: _Center) -> list[np.ndarray]:
    """Per side, the widest Gaussian exp(-d^2 / c^2) through the integrand
    at the _PROBES distances, and at least the curvature scale."""
    d = at.scale[:, None] * _PROBES
    return [
        np.maximum((d / np.sqrt(np.maximum(-at.rise(side), 1e-300))).max(axis=1), at.scale)
        for side in (-d, at.stretch(d))
    ]


def _quadrature(values, noise, mu, sigma) -> np.ndarray:
    """Log marginal likelihood of each observation row (values[i],
    noise[i]) under its own (mu[i], sigma[i])."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
        frame = _Frame(values, noise, mu, sigma)
        lo, hi = frame.lo.copy(), frame.hi.copy()
        # Where O / noise_sd > 2 sqrt(2) / sigma, h is concave only below t-
        # and above t+, its inflections, with a local maximum in either part
        # where h' changes sign there. The mode is the upper one if any.
        two = np.flatnonzero(frame.ratio * frame.sigma > 2.0 * math.sqrt(2.0))
        if two.size:
            sub = frame.take(two)
            inverse = 8.0 / (sub.ratio * sub.sigma) ** 2
            split = np.sqrt(1.0 - inverse)
            shift = np.log(sub.ratio) - sub.log_a
            t_plus = np.maximum(sub.lo, shift + np.log(0.25 * (1.0 + split)))
            t_minus = shift + np.log(0.25 * inverse / (1.0 + split))
            left_hi = np.minimum(sub.hi, t_minus)
            right = sub.slopes(t_plus)[0] >= 0
            both = right & (sub.lo < t_minus) & (sub.slopes(left_hi)[0] < 0)
            lo[two] = np.where(right, t_plus, sub.lo)
            hi[two] = np.where(right, sub.hi, left_hi)
            two = two[both]
            if two.size:
                other = _mode(sub.take(both), sub.lo[both], left_hi[both], left_hi[both])
        # A sharp row starts at the mode of h with z linearized at t = 0. The
        # others start where (O / noise_sd - v) v, v = e^y / noise_sd, meets
        # the prior's pull at lo: at or above the mode, as the pull weakens.
        a, ratio, prec = frame.a, frame.ratio, frame.prec
        linear = (a * frame.z0 - frame.b * prec) / (a * a + prec)
        pull = -(frame.lo + frame.b) * prec
        root = np.hypot(ratio, 2.0 * np.sqrt(pull))
        v = np.where(ratio < 0, 2.0 * pull / (root - ratio), 0.5 * (ratio + root))
        start = np.where(frame.sharp, linear, np.log(v) - frame.log_a)
        at = _Center(frame, _mode(frame, lo, hi, np.where(np.isnan(start), hi, start)))
        out = _node_sums(at, *_side_scales(at))
        if two.size:
            sub = frame.take(two)
            first, second = _Center(sub, at.t[two]), _Center(sub, other)
            out[two] = np.logaddexp(
                _node_sums(first, *[math.sqrt(2.0) * first.scale] * 2, second),
                _node_sums(second, *[math.sqrt(2.0) * second.scale] * 2, first),
            )
        return out


def _inside_box(mu, log_sigma):
    """Whether each (mu, ln sigma) lies in the objective's box; NaN does not."""
    with np.errstate(over="ignore"):
        span = np.abs(mu) + 6.0 * np.exp(log_sigma)
    sigma_ok = (log_sigma >= _LOG_SIGMA_LO) & (log_sigma <= _LOG_SIGMA_HI)
    return (np.abs(mu) <= _MU_BOUND) & sigma_ok & (span <= _LOG_SPAN_MAX)


def marginal_log_likelihood(
    theta: LognormalParams, obs: Sequence[ObservationRecord]
) -> float:
    """Log likelihood of the records as measurements of one duration d
    drawn from Lognormal(theta), log integral prod_j Normal(O_j; d, s_j)
    Lognormal(d; theta) dd: the combined record's quadrature row plus
    log C, 0 for one record. The sum is correctly rounded, so record order
    does not matter. Empty input is 0 (vacuous product). Raises ValueError
    for a theta outside the box the MAP update searches."""
    if not obs:
        return 0.0
    record = _combine(obs)
    if not _inside_box(theta.mu, math.log(theta.sigma)):
        raise ValueError(f"theta {theta} lies outside the likelihood's domain")
    row = _quadrature(*np.array([[record.observed_duration], [record.noise_sd],
                                 [theta.mu], [theta.sigma]]))
    terms = [float(row[0]), math.log(record.noise_sd), (1 - len(obs)) * _LOG_SQRT_2PI]
    for o in obs:
        z = (o.observed_duration - record.observed_duration) / o.noise_sd
        terms.append(-0.5 * z * z - math.log(o.noise_sd))
    return math.fsum(terms)


def log_prior(theta: LognormalParams, state: PosteriorState) -> float:
    """Normal log-density on mu plus Normal log-density on ln sigma, both
    centered at state.prior."""
    x = np.array([[theta.mu, math.log(theta.sigma)]])
    center = np.array([[state.prior.mu, math.log(state.prior.sigma)]])
    return float(_log_priors(x, center, np.array([[state.tau_mu, state.tau_log_sigma]]))[0])


def _log_priors(x: np.ndarray, centers: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """log_prior of each point x[k] = (mu, ln sigma) under the prior with
    center centers[k] and taus[k]."""
    z = (x - centers) / taus
    norm = np.log(taus).sum(axis=1) + 2.0 * _LOG_SQRT_2PI
    return -0.5 * (z[:, 0] ** 2 + z[:, 1] ** 2) - norm


class _Problems:
    """The MAP objectives of (state, records) pairs, each records batch
    non-empty, evaluated many points at a time. A problem's evidence is
    one record, its state's evidence and records combined, and its
    Newton run starts at its prior center x0."""

    def __init__(self, pairs: Sequence[tuple[PosteriorState, tuple]]) -> None:
        self.x0 = np.array([[s.prior.mu, math.log(s.prior.sigma)] for s, _ in pairs])
        self.taus = np.array([[s.tau_mu, s.tau_log_sigma] for s, _ in pairs])
        self.records = [
            _combine((state.evidence, *obs) if state.evidence else obs)
            for state, obs in pairs
        ]
        self.values = np.array([r.observed_duration for r in self.records])
        self.noise = np.array([r.noise_sd for r in self.records])

    def objectives(self, ids: Sequence[int], x: np.ndarray) -> list[float]:
        """Log-likelihood plus log-prior of problem ids[k] at
        x[k] = (mu, ln sigma), -inf outside the box. The points in the box
        share one quadrature call."""
        ids = np.asarray(ids, dtype=np.intp)
        values = _log_priors(x, self.x0[ids], self.taus[ids])
        inside = _inside_box(x[:, 0], x[:, 1])
        rows = ids[inside]
        values[inside] += _quadrature(
            self.values[rows], self.noise[rows], x[inside, 0], np.exp(x[inside, 1])
        )
        values[~inside] = -math.inf
        return values.tolist()


def _newton_step(f: np.ndarray) -> np.ndarray:
    """Ascent steps from stencil values f (runs, 6): Newton on the
    central-difference gradient and Hessian, with Levenberg damping where
    the negated Hessian is not positive definite, scaled down to at most 1
    in each coordinate. NaN where a value is not finite."""
    h2 = _STENCIL * _STENCIL
    g = np.stack([f[:, 1] - f[:, 2], f[:, 3] - f[:, 4]], axis=1) / (2.0 * _STENCIL)
    a = (2.0 * f[:, 0] - f[:, 1] - f[:, 2]) / h2  # -H: mu mu, ln sigma ln sigma, cross
    d = (2.0 * f[:, 0] - f[:, 3] - f[:, 4]) / h2
    b = (f[:, 1] + f[:, 3] - f[:, 5] - f[:, 0]) / h2
    lowest = 0.5 * (a + d) - np.sqrt(0.25 * (a - d) ** 2 + b * b)
    damping = np.where(lowest > 0, 0.0, 1e-3 * (1.0 + np.abs(a + d)) - lowest)
    a, d = a + damping, d + damping
    step = np.stack([d * g[:, 0] - b * g[:, 1], a * g[:, 1] - b * g[:, 0]], axis=1)
    step /= (a * d - b * b)[:, None]
    return step / np.maximum(1.0, np.abs(step).max(axis=1))[:, None]


def _newton(problems: _Problems) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize every problem's objective from its x0 in lockstep, one
    objective call per iteration over the stencils of the unfinished
    problems. A trial is accepted when its value does not drop; otherwise
    its step is halved. A problem converges when its next step is below
    _STEP_TOL; it stops unconverged at a -inf start (its step stays 0) or
    where its derivatives are not finite. Returns the accepted points
    (problems, 2), their values, and which converged."""
    x, trial = problems.x0.copy(), problems.x0.copy()
    fx = np.full(len(x), -math.inf)
    step = np.zeros_like(x)
    converged = np.zeros(len(x), dtype=bool)
    active = np.arange(len(x))
    for _ in range(_NEWTON_MAXITER):
        points = (trial[active][:, None, :] + _STENCIL_POINTS).reshape(-1, 2)
        f = np.array(problems.objectives(np.repeat(active, 6), points)).reshape(-1, 6)
        accept = (f[:, 0] >= fx[active]) & (f[:, 0] > -math.inf)
        taken = active[accept]
        x[taken], fx[taken] = trial[taken], f[accept, 0]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step[taken] = _newton_step(f[accept])
        step[active[~accept]] *= 0.5
        size = np.abs(step[active]).max(axis=1)
        done = size < _STEP_TOL
        converged[active[done & (fx[active] > -math.inf)]] = True
        active = active[~(done | ~np.isfinite(size))]
        if not active.size:
            break
        trial[active] = x[active] + step[active]
    return x, fx, converged


def map_updates(
    pairs: Sequence[tuple[PosteriorState, Sequence[ObservationRecord]]],
) -> list[PosteriorState]:
    """map_update(state, records) of each pair, in pair order.

    The pairs with records are solved together in one lockstep Newton
    iteration; then each result is checked in pair order, so the first
    pair that fails raises.
    """
    pairs = [(state, tuple(obs)) for state, obs in pairs]
    solving = [(state, obs) for state, obs in pairs if obs]
    posteriors = iter(_solve(solving) if solving else ())
    return [next(posteriors) if obs else state for state, obs in pairs]


def _solve(pairs: list[tuple[PosteriorState, tuple]]) -> list[PosteriorState]:
    problems = _Problems(pairs)
    xs, values, converged = _newton(problems)
    out = []
    for p, (state, obs) in enumerate(pairs):
        mu, log_sigma, value = float(xs[p, 0]), float(xs[p, 1]), float(values[p])
        if not (converged[p] and math.isfinite(value)):
            grid_mu, grid_log_sigma, grid_value = _grid_argmax(problems, p)
            if not math.isfinite(value) or grid_value > value:
                mu, log_sigma, value = grid_mu, grid_log_sigma, grid_value
            if not math.isfinite(value):
                raise OptimizationFailed(
                    "MAP objective is non-finite at every probe point"
                )
        if mu + 0.5 * math.exp(2.0 * log_sigma) > _LOG_SPAN_MAX:
            raise OptimizationFailed(
                f"MAP estimate mu={mu:.6g}, sigma={math.exp(log_sigma):.6g} "
                "has a mean duration too large to represent"
            )
        out.append(replace(
            state,
            params=LognormalParams(mu, max(math.exp(log_sigma), SIGMA_MIN)),
            observation_count=state.observation_count + len(obs),
            evidence=problems.records[p],
        ))
    return out


def map_update(
    state: PosteriorState, new_obs: Sequence[ObservationRecord]
) -> PosteriorState:
    """Posterior state after absorbing a batch of observations.

    The batch joins the state's evidence, as measurements of the same
    realized duration, and params becomes the argmax of
    marginal_log_likelihood + log_prior over all of it; the new state
    keeps the prior and the taus. An empty batch returns the state
    unchanged. A Newton result that did not converge is checked against a
    coarse grid search, and the better point is kept.
    Raises OptimizationFailed when the objective is non-finite everywhere
    or the MAP mean duration exp(mu + sigma^2/2) would overflow.
    """
    return map_updates([(state, new_obs)])[0]


def _grid_argmax(problems: _Problems, p: int) -> tuple[float, float, float]:
    """Coarse grid fallback around problem p's prior center, all points
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
