"""Bayesian logistic regression, flat and hierarchical.

The class indicators are observed, so the mean-field pair collapses to a
single Gaussian fit of q(theta): one curvature update against

    f(theta) = sum_n [z_n1 ln sigma(theta' t_n) + z_n2 ln sigma(-theta' t_n)]
               - (theta - mu0)' Sigma0^{-1} (theta - mu0) / 2.

The hierarchical variant shares a Gaussian prior across tasks and refits its
(mean, covariance) by MAP under normal and Wishart hyperpriors.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import engine, numerics
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
        if self.nu <= p - 1:
            raise ValueError(f"Wishart degrees of freedom must exceed {p - 1}")
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
    def __init__(self, instances: list[LabeledInstance], prior: BlrPrior):
        if not instances:
            raise ValueError("need at least one labeled instance")
        dim = instances[0].covariates.shape[0]
        self._t = np.zeros((len(instances), dim))
        self._y1 = np.zeros(len(instances))
        for n, inst in enumerate(instances):
            if inst.covariates.shape != (dim,):
                raise ValueError("instances have inconsistent covariate dimensions")
            self._t[n] = inst.covariates
            self._y1[n] = float(inst.z[0])
        if prior.mean.shape != (dim,):
            raise ValueError("prior dimension does not match the covariates")
        self._prior = prior
        self._prior_inv = prior.inv

    @property
    def dim(self) -> int:
        return self._t.shape[1]

    def f_value_grad(self, theta, stats: ExpectedStats = None):
        theta = np.asarray(theta, dtype=float)
        a = self._t @ theta
        log_sig = numerics.log_sigmoid(a)
        log_sig_neg = numerics.log_sigmoid(-a)
        diff = theta - self._prior.mean
        prior_pull = self._prior_inv @ diff
        value = float(self._y1 @ log_sig + (1.0 - self._y1) @ log_sig_neg) - 0.5 * float(
            diff @ prior_pull
        )
        grad = self._t.T @ (self._y1 - numerics.sigmoid(a)) - prior_pull
        return value, grad

    def f_hessian(self, theta, stats: ExpectedStats = None) -> np.ndarray:
        a = self._t @ np.asarray(theta, dtype=float)
        w = numerics.sigmoid(a) * numerics.sigmoid(-a)
        return -(self._t.T * w) @ self._t - self._prior_inv

    def trace_grad(self, theta, sigma, stats: ExpectedStats = None) -> np.ndarray:
        a = self._t @ np.asarray(theta, dtype=float)
        sig = numerics.sigmoid(a)
        w = sig * numerics.sigmoid(-a)
        quad = np.sum((self._t @ sigma) * self._t, axis=1)
        return -self._t.T @ (w * (1.0 - 2.0 * sig) * quad)

    def expected_stats(self, q_z=None) -> ExpectedStats:
        return ExpectedStats(self._y1.copy())

    def conjugate_update(self, q_theta, data=None) -> ConjugateVariational:
        # indicators are observed; the conjugate factor is degenerate
        return ConjugateVariational(None)


def fit(
    instances: list[LabeledInstance],
    prior: BlrPrior | None = None,
    method: str | None = None,
    cfg: engine.InferenceConfig | None = None,
    diag=None,
) -> GaussianVariational:
    """Fit q(theta) with one curvature update; no conjugate alternation.

    Starts from N(0, I) as in the study protocol.  The update is `method`
    when given, else cfg.method.
    """
    cfg = cfg or engine.InferenceConfig()
    if method is not None:
        cfg = dataclasses.replace(cfg, method=method)
    model = BlrModel(instances, prior or BlrPrior.standard(instances[0].covariates.shape[0]))
    return _fit_model(model, cfg.method, diag)


def _fit_model(model: BlrModel, method: str, diag=None) -> GaussianVariational:
    init = GaussianVariational(np.zeros(model.dim), np.eye(model.dim))
    return engine._refit_q_theta(model, model.expected_stats(), init, method, diag)


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
    p = task_posteriors[0].mu.shape[0]
    m = len(task_posteriors)
    denom = m + float(hier.nu) - p - 1.0
    if denom <= 0.0:
        raise ValueError(
            f"nonpositive scatter denominator {denom:g}; increase nu or add tasks"
        )
    current_mean = np.asarray(current_mean, dtype=float)
    scatter = hier.phi0_inv
    for q in task_posteriors:
        dev = q.mu - current_mean
        scatter = scatter + np.outer(dev, dev)
    sigma0 = scatter / denom
    sigma0 = 0.5 * (sigma0 + sigma0.T)

    mean_of_means = np.mean([q.mu for q in task_posteriors], axis=0)
    shrink = sigma0 @ hier.phi1_inv / m + np.eye(p)
    mu0 = np.linalg.solve(shrink, mean_of_means)
    return mu0, sigma0


@dataclass
class HblrFit:
    posteriors: list[GaussianVariational]
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    trace: engine.InferenceTrace
    converged: bool = False


def fit_hierarchical(
    tasks: list[list[LabeledInstance]],
    hier: HierPrior | None = None,
    cfg: engine.InferenceConfig | None = None,
    em_iters: int = 20,
    threads: int = 1,
) -> HblrFit:
    """Alternate per-task posterior fits with MAP refits of the shared prior.

    Stops early once the shared mean moves less than cfg.conv_tol between
    rounds.  The first round fits every task under the standard prior.
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
    posteriors: list[GaussianVariational] = []
    converged = False

    for it in range(1, em_iters + 1):
        prior = BlrPrior(mu0.copy(), sigma0.copy())
        models = [BlrModel(instances, prior) for instances in tasks]

        def fit_one(model):
            return _fit_model(model, cfg.method)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                posteriors = list(pool.map(fit_one, models))
        else:
            posteriors = [fit_one(model) for model in models]

        objective = 0.0
        for model, q in zip(models, posteriors):
            objective += engine.approx_objective(model, q, ConjugateVariational(None))

        new_mu0, new_sigma0 = hyper_update(posteriors, hier, mu0)
        mean_change = float(np.linalg.norm(new_mu0 - mu0))
        mu0, sigma0 = new_mu0, new_sigma0
        trace.append(
            engine.TraceRecord(it, objective, mean_change, time.perf_counter() - start)
        )
        if mean_change < cfg.conv_tol:
            converged = True
            break

    return HblrFit(posteriors, mu0, sigma0, trace, converged)
