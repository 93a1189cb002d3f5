"""Bayesian logistic regression, flat and hierarchical.

The class indicators are observed, so the mean-field pair collapses to a
single Gaussian fit of q(theta): one curvature update against

    f(theta) = sum_n [z_n1 ln sigma(theta' t_n) + z_n2 ln sigma(-theta' t_n)]
               - (theta - mu0)' Sigma0^{-1} (theta - mu0) / 2.

The hierarchical variant shares a Gaussian prior across tasks and refits its
(mean, covariance) by MAP under normal and Wishart hyperpriors.  Every fit
runs through `_fit`: its models, a flat fit's one or a round's tasks, are the
rows of one engine refit, scored by the rows' monitor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import engine, numerics, optimize
from .model import (
    ConjugateVariational,
    ExpectedStats,
    GaussianVariational,
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
            object.__setattr__(self, name, m)
            object.__setattr__(self, name + "_inv", inv)

    @staticmethod
    def default(dim: int, nu_offset: float = 100.0, phi0_scale: float = 0.01,
                phi1_scale: float = 0.01) -> "HierPrior":
        return HierPrior(
            nu=dim + nu_offset,
            phi0=phi0_scale * np.eye(dim),
            phi1=phi1_scale * np.eye(dim),
        )


class BlrModel(ModelContract):
    def __init__(self, instances: list[LabeledInstance], prior: BlrPrior | None = None):
        """Sizes the standard prior from the covariates when none is given."""
        if not instances:
            raise ValueError("need at least one labeled instance")
        dim = instances[0].covariates.shape[0]
        prior = prior or BlrPrior.standard(dim)
        if any(inst.covariates.shape != (dim,) for inst in instances):
            raise ValueError("instances have inconsistent covariate dimensions")
        self._t = np.array([inst.covariates for inst in instances], dtype=float)
        self._y1 = np.array([inst.z[0] for inst in instances], dtype=float)
        if prior.mean.shape != (dim,):
            raise ValueError("prior dimension does not match the covariates")
        self._prior = prior

    @property
    def dim(self) -> int:
        return self._t.shape[1]

    def f_value_grad(self, theta, stats: ExpectedStats = None):
        theta = np.asarray(theta, dtype=float)
        a = self._t @ theta
        log_sig = numerics.log_sigmoid(a)
        log_sig_neg = numerics.log_sigmoid(-a)
        diff = theta - self._prior.mean
        prior_pull = self._prior.inv @ diff
        value = float(self._y1 @ log_sig + (1.0 - self._y1) @ log_sig_neg) - 0.5 * float(
            diff @ prior_pull
        )
        grad = self._t.T @ (self._y1 - numerics.sigmoid(a)) - prior_pull
        return value, grad

    def f_hessian(self, theta, stats: ExpectedStats = None) -> np.ndarray:
        a = self._t @ np.asarray(theta, dtype=float)
        w = numerics.sigmoid(a) * numerics.sigmoid(-a)
        return -(self._t.T * w) @ self._t - self._prior.inv

    def _trace_terms(self, theta, sigma):
        """sigma(a), w = sigma(a) sigma(-a) and q = diag(T sigma T') at a = T theta."""
        a = self._t @ np.asarray(theta, dtype=float)
        sig = numerics.sigmoid(a)
        quad = np.sum((self._t @ sigma) * self._t, axis=1)
        return sig, sig * numerics.sigmoid(-a), quad

    def trace_grad(self, theta, sigma, stats: ExpectedStats = None) -> np.ndarray:
        sig, w, quad = self._trace_terms(theta, sigma)
        return -self._t.T @ (w * (1.0 - 2.0 * sig) * quad)

    def _trace_hessian(self, theta, sigma) -> np.ndarray:
        """Hessian of theta -> Tr{Hessian_f(theta) sigma}: -T' diag(w'' q) T,
        with w'' = w (1 - 2 sigma)^2 - 2 w^2 the second derivative of w in a."""
        sig, w, quad = self._trace_terms(theta, sigma)
        w2 = w * (1.0 - 2.0 * sig) ** 2 - 2.0 * w * w
        return -(self._t.T * (w2 * quad)) @ self._t

    def newton_direction(self, theta, stats, grad, sigma=None) -> np.ndarray:
        """For the delta profile, -H - Hessian{Tr(H sigma)}/2 at fixed sigma
        where positive definite; the profile's exact term costs O(N^2 P)."""
        neg = -self.f_hessian(theta)
        exact = None if sigma is None else neg - 0.5 * self._trace_hessian(theta, sigma)
        return optimize.dense_direction(neg, grad, exact)

    def expected_stats(self, q_z=None) -> ExpectedStats:
        return ExpectedStats(self._y1.copy())

    def conjugate_update(self, q_theta, data=None) -> ConjugateVariational:
        # indicators are observed; the conjugate factor is degenerate
        return ConjugateVariational(None)


def fit(
    instances: list[LabeledInstance],
    prior: BlrPrior | None = None,
    method: str = "laplace",
) -> GaussianVariational:
    """Fit q(theta) with one `method` update; no conjugate alternation.

    Starts from N(0, I) as in the study protocol.
    """
    (q,), _, _ = _fit([BlrModel(instances, prior)], engine.InferenceConfig(method=method))
    return q


def _fit(models: list[BlrModel], cfg: engine.InferenceConfig):
    """Refit every model from mean zero as a row of one engine refit: the
    posteriors, each model's approximate objective, and whether each
    refit's ascents converged."""
    rows = engine._ModelRows(models)
    stats = [model.expected_stats() for model in models]
    mu, sigma, log_det, converged = engine._refit(
        rows, stats, np.zeros((len(models), models[0].dim)), cfg.method
    )
    objective = rows.monitor(mu, sigma, [ConjugateVariational(None)] * len(models), stats, log_det)
    return [GaussianVariational(m, s) for m, s in zip(mu, sigma)], objective, converged


def predict_loglik(q_theta: GaussianVariational, instance: LabeledInstance) -> float:
    """Plug-in log predictive of the true label, floored at ln 1e-300."""
    a = float(q_theta.mu @ instance.covariates)
    ll = instance.z[0] * float(numerics.log_sigmoid(a)) + instance.z[1] * float(
        numerics.log_sigmoid(-a)
    )
    return max(ll, LOG_FLOOR)


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
    sigma0 = 0.5 * (sigma0 + sigma0.T)

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
    tasks: list[list[LabeledInstance]],
    hier: HierPrior | None = None,
    cfg: engine.InferenceConfig | None = None,
    em_iters: int = 20,
) -> HblrFit:
    """Alternate one refit of all tasks with MAP refits of the shared prior.

    Stops early once the shared mean moves less than cfg.conv_tol between
    rounds; the fit has converged if every task refit of that last round
    converged too.  The first round fits every task under the standard prior.
    """
    if not tasks or any(not t for t in tasks):
        raise ValueError("every task needs at least one instance")
    if em_iters < 1:
        raise ValueError("em_iters must be at least 1")
    dim = tasks[0][0].covariates.shape[0]
    hier = hier or HierPrior.default(dim)
    cfg = cfg or engine.InferenceConfig()
    mu0 = np.zeros(dim)
    sigma0 = np.eye(dim)
    trace = engine.InferenceTrace()
    start = time.perf_counter()

    for it in range(1, em_iters + 1):
        prior = BlrPrior(mu0.copy(), sigma0.copy())
        posteriors, objective, converged = _fit([BlrModel(t, prior) for t in tasks], cfg)
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
