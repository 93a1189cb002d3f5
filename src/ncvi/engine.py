"""Coordinate-ascent engine alternating a Gaussian q(theta) with a conjugate q(z).

One implementation, run on a stack of problems, one per row.  Each q(theta)
update is one damped Newton ascent (optimize.newton) of every row at once:

- laplace: maximize f; Sigma = (-Hessian f(m))^{-1} at the mode m.
- delta: maximize f(mu) + Tr{Hessian_f(mu) Sigma}/2 + log|Sigma|/2 by one
  ascent of its profile g(mu) = f(mu) + (log|Sigma(mu)| - dim)/2 at the
  closed-form Sigma(mu) = (-Hessian f(mu))^{-1}, or the inverse diagonal.

The outer loop alternates the q(theta) refit and the conjugate q(z) update,
a fixed-point map of the means, in SQUAREM cycles (Varadhan & Roland, Scand.
J. Stat. 2008) per row: two plain maps, an extrapolation of the mean and one
stabilizing map from there, kept only where it does not lower the monitor
and still moves the mean forward.  It retires each row once one map stops
moving its mean.  It runs on a rows object over a leading row axis:
`select(keep)`, `ascent(stats, shift)` (newton's evaluate for f or, at a
shift, for g, then Sigma and log|Sigma|), `covariance(theta, stats, shift)`
(laplace's Sigma and log|Sigma| from one factor), `conjugate_update`,
`expected_stats` and `monitor` (the approximate objective at the expected
statistics it is given).  `ctm` packs its documents as rows and `blr` its
tasks; `_ModelRows` runs one ModelContract as a stack of one, the dense
reference path behind `laplace_step`, `delta_step` and
`run_coordinate_ascent`.  The engine handles no Hessian matrix: it keeps
the jitter policy, one jitter for the stack, and NonConcaveError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from . import numerics, optimize
from .model import ConjugateVariational, ExpectedStats, GaussianVariational, ModelContract

__all__ = [
    "InferenceConfig",
    "TraceRecord",
    "InferenceTrace",
    "NonConcaveError",
    "laplace_step",
    "delta_step",
    "approx_objective",
    "run_coordinate_ascent",
]

# diagonal jitter for an indefinite -Hessian: starts here, doubles up to the cap
_JITTER_INIT = 1e-6
_JITTER_MAX = 1e-2
# each row's bound on SQUAREM's |alpha| starts at 1 (a plain map); it grows
# by this factor when it binds on a kept trial and shrinks by it, not below 1,
# when a trial is not kept (as step.max0 and mstep in Varadhan's SQUAREM)
_REACH_GROWTH = 4.0


@dataclass(frozen=True)
class InferenceConfig:
    method: str = "laplace"
    conv_tol: float = 1e-4
    max_outer_iters: ClassVar[int] = 100

    def __post_init__(self):
        if self.method not in ("laplace", "delta"):
            raise ValueError(f"unknown method '{self.method}'")
        if not self.conv_tol > 0.0:  # NaN too
            raise ValueError("conv_tol must be positive")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective: float
    mean_change: float
    seconds: float


class InferenceTrace:
    """Per-iteration log of the approximate objective and mean movement."""

    header = "iter,objective,mean_change,seconds"

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.converged = False

    def append(self, record: TraceRecord) -> None:
        if self.records and record.iteration <= self.records[-1].iteration:
            raise ValueError("trace iterations must be strictly increasing")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.header + "\n")
            for r in self.records:
                fh.write(
                    f"{r.iteration},{r.objective:.17g},{r.mean_change:.17g},{r.seconds:.6f}\n"
                )


class NonConcaveError(ArithmeticError):
    """-Hessian stayed indefinite after exhausting the jitter budget."""


def _jittered(attempt, failure):
    """attempt(jitter) at jitter 0, then doubling from _JITTER_INIT, until it
    no longer raises `failure`; NonConcaveError past _JITTER_MAX."""
    jitter = 0.0
    while jitter <= _JITTER_MAX:
        try:
            return attempt(jitter)
        except failure:
            jitter = 2.0 * jitter or _JITTER_INIT
    raise NonConcaveError(f"negated Hessian not positive definite after jitter {_JITTER_MAX:g}")


def _refit(rows, stats, mu, method: str):
    """The q(theta) update named by `method` for every row, from the means mu:
    the new means, Sigma, log|Sigma| and, per row, whether every Newton ascent
    reached the optimizer's grad_tol.  The delta profile, exact at a fixed
    shift, is climbed at the first jitter defining Sigma at its start (else
    from f's mode), and Sigma is the one formed at its argmax."""
    if method == "laplace":
        result = optimize.newton(rows.ascent(stats), mu)
        sigma, log_det = _jittered(lambda jitter: rows.covariance(result.argmax, stats, jitter),
                                   numerics.NotPositiveDefiniteError)
        return result.argmax, sigma, log_det, result.converged

    def profile(start):
        return _jittered(lambda shift: optimize.newton(rows.ascent(stats, shift), start),
                         optimize.NonFiniteStartError)

    try:
        result, converged = profile(mu), True
    except NonConcaveError:
        climb = optimize.newton(rows.ascent(stats), mu)
        result, converged = profile(climb.argmax), climb.converged
    return result.argmax, *result.extras, converged & result.converged  # Sigma, log|Sigma|


def _map(rows, stats, mu, method: str):
    """One plain map of the outer loop from the means mu, at the expected
    statistics of q(z): the q(theta) refit, then the q(z) update.  Returns the
    means, Sigma, log|Sigma|, each row's refit convergence, q(z) and its
    statistics."""
    mu, sigma, log_det, converged = _refit(rows, stats, mu, method)
    q_z = rows.conjugate_update(mu, sigma)
    return mu, sigma, log_det, converged, q_z, rows.expected_stats(q_z)


class _Point(NamedTuple):
    """A map's result per row, with its monitor."""

    mu: np.ndarray
    sigma: object
    converged: np.ndarray
    objective: np.ndarray
    stats: object


def _scored(rows, mu, sigma, log_det, converged, q_z, stats) -> _Point:
    return _Point(mu, sigma, converged, rows.monitor(mu, sigma, q_z, stats, log_det), stats)


def _trial(rows, x, sigma, method: str):
    """The stabilizing map from extrapolated means x, with q(z) built from x
    and sigma, scored."""
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("extrapolated mean is not finite")
    stats = rows.expected_stats(rows.conjugate_update(x, sigma))
    return _scored(rows, *_map(rows, stats, x, method))


def _stabilize(rows, x, sigma, method: str):
    """`_trial` on every row, as (row indices, scored point) pairs.  A trial
    that fails numerically (ArithmeticError, LinAlgError, or an x where f is
    not finite) fails for its row alone: the batch is retried one row at a
    time (a row's result does not depend on its batch), and a row whose trial
    fails on its own gets none."""
    try:
        return [(np.arange(len(x)), _trial(rows, x, sigma, method))]
    except (ArithmeticError, np.linalg.LinAlgError, optimize.NonFiniteStartError):
        if len(x) == 1:
            return []
    out = []
    for i in range(len(x)):
        one = np.array([i])
        out += [(one, t) for _, t in _stabilize(rows.select(one), x[one], sigma[one], method)]
    return out


def _squarem(rows, path, plain, change, reach, method: str):
    """One SQUAREM step per row (Varadhan & Roland, Scand. J. Stat. 2008)
    from the cycle's means path = (mu0, mu1, mu2) and the scored plain point
    at mu2: extrapolate to x = mu0 - 2 alpha r + alpha^2 v, r = mu1 - mu0,
    v = mu2 - 2 mu1 + mu0, alpha = -|r|/|v| clamped to [-reach, -1], and take
    the stabilizing map from x.  A row keeps the stabilized point y if its
    monitor is not below the plain point's and the map still moved the mean
    the way the cycle's last plain map did, (y - x)'(mu2 - mu1) >= 0; else the
    plain point.  The second test and the reach guard the laplace monitor,
    which is not largest at laplace's fixed point: an x past that point can
    score above it, and the records would then fall back toward it.
    Returns the kept points, the mean change of the map that made each, and
    each row's next reach."""
    mu0, mu1, mu2 = path
    r, v = mu1 - mu0, mu2 - 2.0 * mu1 + mu0
    v_norm = np.linalg.norm(v, axis=1)
    alpha = -np.linalg.norm(r, axis=1) / np.where(v_norm > 0.0, v_norm, np.inf)
    alpha = np.clip(alpha, -reach, -1.0)
    x = mu0 - 2.0 * alpha[:, None] * r + (alpha * alpha)[:, None] * v
    point = _Point(*(a.copy() if isinstance(a, np.ndarray) else list(a) for a in plain))
    change, kept = change.copy(), np.zeros(len(x), dtype=bool)
    for ran, trial in _stabilize(rows, x, plain.sigma, method):
        moved = np.einsum("dk,dk->d", trial.mu - x[ran], mu2[ran] - mu1[ran])
        for j, i in enumerate(ran):
            if trial.objective[j] >= plain.objective[i] and moved[j] >= 0.0:
                for field, new in zip(point, trial):
                    field[i] = new[j]
                change[i], kept[i] = np.linalg.norm(trial.mu[j] - x[i]), True
    grown = np.where(alpha == -reach, _REACH_GROWTH * reach, reach)
    return point, change, np.where(kept, grown, np.maximum(reach / _REACH_GROWTH, 1.0))


def _ascend(rows, mu, stats, cfg: InferenceConfig, traces: list[InferenceTrace]):
    """Alternate q(theta) and q(z) updates on every row at once, from the
    means mu and the expected statistics of the starting q(z), in SQUAREM
    cycles: two plain maps, then `_squarem`'s extrapolation and stabilizing
    map, kept only where it does not lower the monitor and still moves the
    mean forward.

    A row retires once the L2 norm of its mean's change in one map drops
    below cfg.conv_tol, checked after every map, so a row that converges in
    one or two maps never extrapolates; cfg.max_outer_iters caps the maps.
    Each row's trace gets one record per cycle and one where the row retires,
    with `iteration` the maps taken so far.  A row has converged if the refit
    of its last map also reached the optimizer's grad_tol, so a refit that
    stopped short (at its iteration cap, or once steps stopped raising the
    objective) reports converged=False in the row's trace.  Returns the
    means, each row's Sigma and its approximate objective."""
    mu = np.array(mu, dtype=float)
    sigma, objective = [None] * len(mu), np.zeros(len(mu))
    active = np.arange(len(mu))
    start, maps, reach = time.perf_counter(), 0, np.ones(len(mu))
    path = [mu[active]]  # the cycle's means so far
    while True:
        maps += 1
        if len(path) < 3:
            mu_map, *rest, stats = _map(rows, stats, path[-1], cfg.method)
            change = np.linalg.norm(mu_map - path[-1], axis=1)
            path.append(mu_map)
            record = (change < cfg.conv_tol) | (maps >= cfg.max_outer_iters)
            if len(path) == 2 and not record.any():
                continue
            point = _scored(rows, mu_map, *rest, stats)
        else:
            point, change, reach = _squarem(rows, path, point, change, reach, cfg.method)
            path, stats = [point.mu], point.stats
            record = np.ones(len(active), dtype=bool)
        seconds = time.perf_counter() - start
        for i in np.flatnonzero(record):
            d = active[i]
            mu[d], sigma[d], objective[d] = point.mu[i], point.sigma[i], point.objective[i]
            traces[d].append(TraceRecord(maps, float(point.objective[i]), float(change[i]), seconds))
            traces[d].converged = bool(change[i] < cfg.conv_tol and point.converged[i])
        keep = np.flatnonzero((change >= cfg.conv_tol) & (maps < cfg.max_outer_iters))
        if not keep.size:
            return mu, sigma, objective
        if keep.size < active.size:
            rows, stats, active = rows.select(keep), stats[keep], active[keep]
            path, change, reach = [p[keep] for p in path], change[keep], reach[keep]
            point = _Point(*(a[keep] for a in point))


class _ModelRows:
    """One ModelContract as a stack of one row, for the refit and the loop
    above: the dense reference path.  Sigma, stats and q(z) are one-item
    sequences and log|Sigma| a one-item array.  It has no `select`: the
    stack ends with its one row."""

    def __init__(self, model: ModelContract, data=None):
        self.model, self.data = model, data

    def ascent(self, stats, shift=None):
        """f or, at a shift, the delta profile g = f + (log|Sigma| - dim)/2 at
        Sigma = model.covariance(theta, stats, shift, model.delta_diagonal),
        -inf where undefined, with grad f + trace_grad(theta, Sigma)/2 (the
        envelope theorem), the model's Newton direction, Sigma and log|Sigma|."""
        model, (stats,) = self.model, stats

        def evaluate(points, rows):
            (theta,), sigma, log_det = points, None, np.nan
            value, grad = model.f_value_grad(theta, stats)
            if np.isfinite(value) and shift is not None:
                try:
                    sigma, log_det = model.covariance(theta, stats, shift, model.delta_diagonal)
                except numerics.NotPositiveDefiniteError:
                    value = -np.inf
                else:
                    grad = grad + 0.5 * model.trace_grad(theta, sigma, stats)
                    value += 0.5 * (log_det - model.dim)
            direction = grad
            if np.isfinite(value):
                direction = model.newton_direction(theta, stats, grad, sigma)
            out = tuple(np.array([a], dtype=float) for a in (value, grad, direction))
            if shift is not None:  # Sigma, whatever its type, in an object array
                out += (np.fromiter([sigma], object, 1), np.array([log_det]))
            return out

        return evaluate

    def covariance(self, theta, stats, shift):
        sigma, log_det = self.model.covariance(theta[0], stats[0], shift, False)
        return [sigma], np.array([log_det])

    def conjugate_update(self, mu, sigma):
        return [self.model.conjugate_update(GaussianVariational(mu[0], sigma[0]), self.data)]

    def expected_stats(self, q_z):
        return [self.model.expected_stats(q_z[0])]

    def monitor(self, mu, sigma, q_z, stats, log_det):
        q_theta = GaussianVariational(mu[0], sigma[0])
        return np.array([approx_objective(self.model, q_theta, q_z[0], stats[0], log_det[0])])


def _step(model, stats, mu, method):
    mu, sigma, log_det, converged = _refit(_ModelRows(model), [stats], [mu], method)
    return GaussianVariational(mu[0], sigma[0]), float(log_det[0]), bool(converged[0])


def laplace_step(
    model: ModelContract, stats: ExpectedStats, init: np.ndarray
) -> tuple[GaussianVariational, float, bool]:
    """Fit q(theta) = N(m, (-Hessian f(m))^{-1}) at the mode m of f.

    Returns q, log|Sigma| and whether the ascent to m converged.
    """
    return _step(model, stats, init, "laplace")


def delta_step(
    model: ModelContract, stats: ExpectedStats, init_q: GaussianVariational
) -> tuple[GaussianVariational, float, bool]:
    """Maximize f(mu) + Tr{H(mu) Sigma}/2 + log|Sigma|/2 by one Newton ascent
    of its profile from init_q's mean.  Returns q, log|Sigma| and whether
    every ascent converged."""
    return _step(model, stats, init_q.mu, "delta")


def approx_objective(
    model: ModelContract,
    q_theta: GaussianVariational,
    q_z: ConjugateVariational,
    stats: ExpectedStats,
    log_det: float,
) -> float:
    """Second-order surrogate of the variational objective.

    Expands f to second order around the variational mean, E[f] ~ f(mu) +
    Tr{H Sigma}/2, at q(z)'s expected statistics `stats`, and adds the
    Gaussian term log|Sigma|/2, from the log_det of the factor that produced
    Sigma, and the conjugate-factor entropy.  The optimized f drops log-joint terms that are
    constant in theta (expected observation likelihood and carrier); they vary
    across outer iterations through q(z), so the model adds them back here via
    qz_model_terms.  A monitor of progress, not the quantity either step
    maximizes directly.
    """
    value, _ = model.f_value_grad(q_theta.mu, stats)
    return (
        value
        + 0.5 * (model.hessian_trace(q_theta.mu, stats, q_theta.sigma) + log_det)
        + model.qz_entropy(q_z)
        + model.qz_model_terms(q_z)
    )


def run_coordinate_ascent(
    model: ModelContract,
    data,
    init_q_theta: GaussianVariational,
    init_q_z: ConjugateVariational,
    cfg: InferenceConfig | None = None,
) -> tuple[GaussianVariational, ConjugateVariational, InferenceTrace]:
    """The outer loop on one model until its mean stops moving.  Any step
    failure propagates with `trace` attached."""
    trace = InferenceTrace()
    try:
        mu, sigma, _ = _ascend(
            _ModelRows(model, data), [init_q_theta.mu], [model.expected_stats(init_q_z)],
            cfg or InferenceConfig(), [trace],
        )
    except ArithmeticError as err:
        err.trace = trace
        raise
    q_theta = GaussianVariational(mu[0], sigma[0])
    return q_theta, model.conjugate_update(q_theta, data), trace
