"""Bayesian logistic regression, flat and hierarchical.

The class indicators are observed, so the mean-field pair collapses to a
single Gaussian fit of q(theta): one curvature update against

    f(theta) = sum_n [z_n1 ln sigma(theta' t_n) + z_n2 ln sigma(-theta' t_n)]
               - (theta - mu0)' Sigma0^{-1} (theta - mu0) / 2.

The hierarchical variant shares a Gaussian prior across tasks and refits its
(mean, covariance) by MAP under normal and Wishart hyperpriors.  The
logistic maths is written once, as kernels over tasks packed flat into
arrays.  Every fit runs through `_fit`: its tasks, a flat fit's one or a
round's, are packed once (`_Tasks`) as rows, one per task, that the engine
refits together and that the monitor scores; each evaluation forms every
task's Hessian and diag(T Sigma T') once and steps by
optimize.dense_direction.  `BlrModel`, one task's ModelContract, is the
one-task view of the same kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine, numerics, optimize
from .model import (
    ConjugateVariational,
    ExpectedStats,
    GaussianVariational,
    LabeledData,
    LabeledInstance,
    ModelContract,
)

__all__ = [
    "BlrPrior",
    "HierPrior",
    "BlrModel",
    "HblrFit",
    "fit",
    "predict_loglik",
    "hyper_update",
    "fit_hierarchical",
]

LOG_FLOOR = float(np.log(1e-300))


@dataclass(frozen=True)
class BlrPrior:
    """Gaussian coefficient prior, its covariance inverted once for every model."""

    mean: np.ndarray
    cov: np.ndarray
    inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("prior mean and covariance dimensions disagree")
        inv = numerics._factorize_input(cov, "prior covariance").inverse()
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "inv", inv)

    @staticmethod
    def standard(dim: int) -> "BlrPrior":
        return BlrPrior(np.zeros(dim), np.eye(dim))


@dataclass(frozen=True)
class HierPrior:
    """Hyperpriors for the shared task prior: Sigma0^{-1} ~ Wishart(nu, phi0),
    mu0 ~ N(0, phi1)."""

    nu: float
    phi0: np.ndarray
    phi1: np.ndarray
    phi0_inv: np.ndarray = field(init=False, repr=False, compare=False)
    phi1_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phi0 = np.asarray(self.phi0, dtype=float)
        phi1 = np.asarray(self.phi1, dtype=float)
        if phi0.shape != phi1.shape or phi0.ndim != 2:
            raise ValueError("phi0 and phi1 must be square matrices of equal size")
        p = phi0.shape[0]
        if not p - 1 < self.nu < np.inf:  # NaN too
            raise ValueError(f"Wishart degrees of freedom must be finite and exceed {p - 1}")
        for name, m in (("phi0", phi0), ("phi1", phi1)):
            inv = numerics._factorize_input(m, name).inverse()
            if not np.all(np.isfinite(inv)):
                raise ValueError(f"{name} is too small: its inverse overflows")
            object.__setattr__(self, name, m)
            object.__setattr__(self, name + "_inv", inv)

    @staticmethod
    def default(dim: int, nu_offset: float = 100.0, phi0_scale: float = 0.01,
                phi1_scale: float = 0.01) -> "HierPrior":
        return HierPrior(
            nu=dim + nu_offset,
            phi0=np.diag(np.full(dim, phi0_scale)),
            phi1=np.diag(np.full(dim, phi1_scale)),
        )


# The logistic maths, once, on tasks packed flat in task order: covariates
# t (N, P) with sig = sigma(a) and w = sigma(a) sigma(-a) at a = T theta per
# row, and `segments` slicing each task's rows; one result per task.


def _gram(t, v, segments):
    """T' diag(v) T per task, over each task's segment of the packed rows."""
    return np.array([(t[s].T * v[s]) @ t[s] for s in segments])


def _neg_hessian(t, w, segments, prior_inv):
    """-H per task: T' diag(w) T plus the prior precision."""
    return _gram(t, w, segments) + prior_inv


def _quad(t, sigma, segments):
    """q = diag(T Sigma T') per instance, under its task's Sigma."""
    return np.sum(np.concatenate([t[s] @ m for s, m in zip(segments, sigma)]) * t, axis=1)


def _trace_grad(t, sig, w, quad, segments):
    """Gradient of theta -> Tr{H(theta) Sigma} per task at fixed Sigma:
    -sum_n w_n (1 - 2 sigma_n) q_n t_n."""
    starts = [s.start for s in segments]
    return -np.add.reduceat((w * (1.0 - 2.0 * sig) * quad)[:, None] * t, starts, axis=0)


def _trace_hessian(t, sig, w, quad, segments):
    """Hessian of theta -> Tr{H(theta) Sigma} per task at fixed Sigma:
    -T' diag(w'' q) T, with w'' = w (1 - 2 sigma)^2 - 2 w^2 the second
    derivative of w in a."""
    slope = w * (1.0 - 2.0 * sig)
    return -_gram(t, (slope * (1.0 - 2.0 * sig) - 2.0 * w * w) * quad, segments)


def _sym(m):
    return 0.5 * (m + m.transpose(0, 2, 1))


class BlrModel(ModelContract):
    """One task's problem for the generic engine: the one-task view of the
    packed maths that `_Tasks` runs."""

    def __init__(self, instances, prior: BlrPrior | None = None):
        """Sizes the standard prior from the covariates when none is given."""
        self._task = _Tasks.of([instances], prior)
        self._t = self._task.t

    @property
    def dim(self) -> int:
        return self._t.shape[1]

    def _terms(self, theta):
        return self._task._terms(np.asarray(theta, dtype=float)[None], [0])

    def f_value_grad(self, theta, stats: ExpectedStats = None):
        _, _, value, grad, _, _ = self._terms(theta)
        return float(value[0]), grad[0]

    def f_hessian(self, theta, stats: ExpectedStats = None) -> np.ndarray:
        t, segments, _, _, _, w = self._terms(theta)
        return -_neg_hessian(t, w, segments, self._task.prior.inv)[0]

    def trace_grad(self, theta, sigma, stats: ExpectedStats = None) -> np.ndarray:
        t, segments, _, _, sig, w = self._terms(theta)
        return _trace_grad(t, sig, w, _quad(t, [sigma], segments), segments)[0]

    def newton_direction(self, theta, stats, grad, sigma=None) -> np.ndarray:
        """For the delta profile, -H - Hessian{Tr(H sigma)}/2 at fixed sigma
        where positive definite, else -H."""
        t, segments, _, _, sig, w = self._terms(theta)
        neg = _neg_hessian(t, w, segments, self._task.prior.inv)
        exact = neg if sigma is None else (
            neg - 0.5 * _trace_hessian(t, sig, w, _quad(t, [sigma], segments), segments))
        return optimize.dense_direction(exact, neg, np.asarray(grad, dtype=float)[None])[0]

    def expected_stats(self, q_z=None) -> ExpectedStats:
        return ExpectedStats(self._task.y1.copy())

    def conjugate_update(self, q_theta, data=None) -> ConjugateVariational:
        # indicators are observed; the conjugate factor is degenerate
        return ConjugateVariational(None)


@dataclass(frozen=True, eq=False)
class _Tasks:
    """Tasks as the engine's rows, one per task, under one shared prior: every
    task's instances packed flat in task order, covariates t (N, P) and
    labels as weights y1 and y0 = 1 - y1, task m holding rows
    bounds[m]:bounds[m + 1].  An evaluation calls sigmoid once, sums each
    task over its rows, forms -H and, for the delta profile, q = diag(T Sigma
    T') once for all its tasks, and solves their Newton matrices by
    optimize.dense_direction.  Work and memory scale with the instances,
    however unequal the tasks."""

    t: np.ndarray
    y1: np.ndarray
    y0: np.ndarray
    bounds: np.ndarray
    prior: BlrPrior

    def __post_init__(self):
        if self.prior.mean.shape != self.t.shape[1:]:
            raise ValueError("prior dimension does not match the covariates")

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @classmethod
    def of(cls, tasks, prior: BlrPrior | None = None) -> "_Tasks":
        """Tasks, each a nonempty sequence of labeled instances, packed under
        `prior`, the standard prior when none is given."""
        data = [LabeledData.of(task) for task in tasks]
        if len({d.covariates.shape[1] for d in data}) != 1:
            raise ValueError("tasks have inconsistent covariate dimensions")
        t = np.concatenate([d.covariates for d in data])
        y1 = np.concatenate([d.labels for d in data])
        bounds = np.cumsum([0] + [len(d) for d in data])
        return cls(t, y1, 1.0 - y1, bounds, prior or BlrPrior.standard(t.shape[1]))

    def _part(self, rows):
        """The packed rows of the tasks `rows` (ascending) and their bounds."""
        if len(rows) == len(self):
            return self.t, self.y1, self.y0, self.bounds
        sizes = np.diff(self.bounds)
        keep = np.repeat(np.isin(np.arange(len(self)), rows), sizes)
        bounds = np.concatenate(([0], np.cumsum(sizes[rows])))
        return self.t[keep], self.y1[keep], self.y0[keep], bounds

    def _terms(self, theta, rows):
        """The tasks `rows` at theta, one per row: T, its segments, f and its
        gradient, sigma(a) and w = sigma(a) sigma(-a) at a = T theta."""
        t, y1, y0, bounds = self._part(rows)
        starts = bounds[:-1]
        a = np.einsum("np,np->n", t, np.repeat(theta, np.diff(bounds), axis=0))
        sig, sig_neg = numerics.sigmoid(np.stack((a, -a)))
        log_sig, log_sig_neg = numerics.log_sigmoid(np.stack((a, -a)))
        diff = theta - self.prior.mean
        pull = diff @ self.prior.inv
        value = (np.add.reduceat(y1 * log_sig + y0 * log_sig_neg, starts)
                 - 0.5 * np.einsum("rp,rp->r", diff, pull))
        grad = np.add.reduceat((y1 - sig)[:, None] * t, starts, axis=0) - pull
        segments = [slice(s, e) for s, e in zip(starts.tolist(), bounds[1:].tolist())]
        return t, segments, value, grad, sig, sig * sig_neg

    def ascent(self, stats, shift=None):
        """f per task or, given a shift, the delta profile at Sigma(theta) =
        (-H + shift I)^{-1}, -inf where that is not positive definite, then
        Sigma and log|Sigma|.  The Newton matrices are -H, and for the profile
        -H - Hessian{Tr(H Sigma)}/2 at fixed Sigma where positive definite."""

        def evaluate(theta, rows):
            terms = self._terms(theta, rows)
            live = np.isfinite(terms[2])
            if live.all():
                return self._newton(*terms, shift)
            # the line search rejects the other rows unread
            value, grad = terms[2:4]
            out = (value, grad, grad.copy())
            if shift is not None:  # Sigma and log|Sigma|
                out += (np.zeros(grad.shape + grad.shape[1:]), np.zeros_like(value))
            if live.any():
                for full, part in zip(out, evaluate(theta[live], rows[live])):
                    full[live] = part
            return out

        return evaluate

    def _newton(self, t, segments, value, grad, sig, w, shift):
        neg = _neg_hessian(t, w, segments, self.prior.inv)
        if shift is None:
            return value, grad, optimize.dense_direction(neg, neg, grad)
        dim = neg.shape[1]
        fact, defined = numerics.spd_factorize_each(_sym(neg) + shift * np.eye(dim))
        sigma = fact.inverse()
        quad = _quad(t, sigma, segments)
        value = np.where(defined, value - 0.5 * (fact.log_det + dim), -np.inf)
        grad = grad + 0.5 * _trace_grad(t, sig, w, quad, segments)
        exact = neg - 0.5 * _trace_hessian(t, sig, w, quad, segments)
        direction = grad.copy()
        direction[defined] = optimize.dense_direction(exact[defined], neg[defined], grad[defined])
        return value, grad, direction, sigma, -fact.log_det

    def covariance(self, theta, stats, shift):
        """Sigma = (-H + shift I)^{-1} and log|Sigma| per task, from one
        stacked factor."""
        t, segments, _, _, _, w = self._terms(theta, np.arange(len(self)))
        neg = _sym(_neg_hessian(t, w, segments, self.prior.inv))
        fact = numerics.spd_factorize(neg + shift * np.eye(neg.shape[1]))
        return fact.inverse(), -fact.log_det

    def monitor(self, mu, sigma, q_z, stats, log_det):
        """Each task's approximate objective f + (Tr{H Sigma} + log|Sigma|)/2,
        with Tr{H Sigma} = -sum_n w_n q_n - Tr(Sigma0^{-1} Sigma) over its
        rows."""
        t, segments, value, _, _, w = self._terms(mu, np.arange(len(self)))
        curvature = (-np.add.reduceat(w * _quad(t, sigma, segments), self.bounds[:-1])
                     - np.einsum("pq,rqp->r", self.prior.inv, sigma))
        return value + 0.5 * (curvature + log_det)


def fit(
    instances,
    prior: BlrPrior | None = None,
    method: str = "laplace",
) -> GaussianVariational:
    """Fit q(theta) with one `method` update; no conjugate alternation.

    Starts from N(0, I) as in the study protocol.
    """
    (q,), _, _ = _fit(_Tasks.of([instances], prior), engine.InferenceConfig(method=method))
    return q


def _fit(rows: _Tasks, cfg: engine.InferenceConfig):
    """Refit every task from mean zero as a row of one engine refit: the
    posteriors, each task's approximate objective, and whether each
    refit's ascents converged."""
    mu, sigma, log_det, converged = engine._refit(
        rows, None, np.zeros((len(rows), rows.t.shape[1])), cfg.method
    )
    objective = rows.monitor(mu, sigma, None, None, log_det)
    return [GaussianVariational(m, s) for m, s in zip(mu, sigma)], objective, converged


def predict_loglik(q_theta: GaussianVariational, instance: LabeledInstance) -> float:
    """Plug-in log predictive of the true label, floored at ln 1e-300."""
    return float(_log_predictive(q_theta.mu, LabeledData.of([instance]))[0])


def _log_predictive(mu, data: LabeledData) -> np.ndarray:
    """`predict_loglik` of every instance, from one matrix-vector product."""
    a = data.covariates @ mu
    ll = np.where(data.labels == 1.0, numerics.log_sigmoid(a), numerics.log_sigmoid(-a))
    return np.maximum(ll, LOG_FLOOR)


def hyper_update(
    task_posteriors: list[GaussianVariational],
    hier: HierPrior,
    current_mean: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """MAP refit of the shared prior from the task posterior means.

    The covariance update uses the current shared mean; the mean update then
    shrinks the average task mean through the refreshed covariance:

        Sigma0 = (phi0^{-1} + sum_m (mu_m - mu0)(mu_m - mu0)') / (M + nu - p - 1)
        mu0    = (Sigma0 phi1^{-1} / M + I)^{-1} (sum_m mu_m) / M
    """
    if not task_posteriors:
        raise ValueError("need at least one task posterior")
    means = np.array([q.mu for q in task_posteriors])
    m, p = means.shape
    denom = m + float(hier.nu) - p - 1.0
    if denom <= 0.0:
        raise ValueError(
            f"nonpositive scatter denominator {denom:g}; increase nu or add tasks"
        )
    scatter = hier.phi0_inv
    for dev in means - np.asarray(current_mean, dtype=float):
        scatter = scatter + np.outer(dev, dev)
    sigma0 = scatter / denom

    shrink = sigma0 @ hier.phi1_inv / m + np.eye(p)
    mu0 = np.linalg.solve(shrink, means.mean(axis=0))
    return mu0, sigma0


@dataclass
class HblrFit:
    posteriors: list[GaussianVariational]
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    trace: engine.InferenceTrace


def fit_hierarchical(
    tasks,
    hier: HierPrior | None = None,
    cfg: engine.InferenceConfig | None = None,
    em_iters: int = 20,
) -> HblrFit:
    """Alternate one refit of all tasks with MAP refits of the shared prior.

    Stops early once the shared mean moves less than cfg.conv_tol between
    rounds; the fit has converged if every task refit of that last round
    converged too.  The first round fits every task under the standard prior.
    """
    if not tasks or any(not len(t) for t in tasks):
        raise ValueError("every task needs at least one instance")
    if em_iters < 1:
        raise ValueError("em_iters must be at least 1")
    rows = _Tasks.of(tasks)
    dim = rows.t.shape[1]
    hier = hier or HierPrior.default(dim)
    cfg = cfg or engine.InferenceConfig()
    mu0 = np.zeros(dim)
    sigma0 = np.eye(dim)
    trace = engine.InferenceTrace()
    start = time.perf_counter()

    for it in range(1, em_iters + 1):
        rows = replace(rows, prior=BlrPrior(mu0.copy(), sigma0.copy()))
        posteriors, objective, converged = _fit(rows, cfg)
        new_mu0, new_sigma0 = hyper_update(posteriors, hier, mu0)
        mean_change = float(np.linalg.norm(new_mu0 - mu0))
        mu0, sigma0 = new_mu0, new_sigma0
        # the tasks' objectives summed in task order, as a running total
        total = float(np.cumsum(objective)[-1])
        trace.append(engine.TraceRecord(it, total, mean_change, time.perf_counter() - start))
        if mean_change < cfg.conv_tol:
            trace.converged = bool(converged.all())
            break

    return HblrFit(posteriors, mu0, sigma0, trace)
