"""Coordinate-ascent engine alternating a Gaussian q(theta) with a conjugate q(z).

Two interchangeable q(theta) updates:

- laplace_step: maximize f and set the covariance from the curvature at the
  mode m, Sigma = (-Hessian f(m))^{-1}.
- delta_step: maximize the curvature-corrected objective
  f(mu) + Tr{Hessian_f(mu) Sigma}/2 + log|Sigma|/2 by alternating gradient
  ascent in mu (at fixed Sigma) with the closed-form Sigma update.

The q(z) update is each model's conjugate_update, which owns whatever
expectation of eta(theta) under q(theta) it needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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

_DELTA_INNER_TOL = 1e-8
_DELTA_INNER_ROUNDS = 10
# diagonal jitter for an indefinite -Hessian: starts here, doubles up to the cap
_JITTER_INIT = 1e-6
_JITTER_MAX = 1e-2


@dataclass(frozen=True)
class InferenceConfig:
    method: str = "laplace"
    conv_tol: float = 1e-4
    max_outer_iters: int = 100

    def __post_init__(self):
        if self.method not in ("laplace", "delta"):
            raise ValueError(f"unknown method '{self.method}'")
        if self.conv_tol <= 0.0:
            raise ValueError("conv_tol must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")


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


def _neg_hessian_factorization(hessian, diag=None):
    """Factor -hessian, doubling a diagonal jitter from _JITTER_INIT on failure."""
    neg = -np.asarray(hessian, dtype=float)
    neg = 0.5 * (neg + neg.T)
    try:
        fact = numerics.spd_factorize(neg)
        return fact, 0.0
    except numerics.NotPositiveDefiniteError:
        pass
    jitter = _JITTER_INIT
    eye = np.eye(neg.shape[0])
    while jitter <= _JITTER_MAX:
        try:
            fact = numerics.spd_factorize(neg + jitter * eye)
            if diag is not None:
                diag.setdefault("jitter_events", []).append(jitter)
            return fact, jitter
        except numerics.NotPositiveDefiniteError:
            jitter *= 2.0
    raise NonConcaveError(
        f"negated Hessian not positive definite after jitter {_JITTER_MAX:g}"
    )


def laplace_step(
    model: ModelContract,
    stats: ExpectedStats,
    init: np.ndarray,
    *,
    diag=None,
) -> GaussianVariational:
    """Fit q(theta) = N(m, (-Hessian f(m))^{-1}) at the mode m of f."""

    def objective(theta):
        return model.f_value_grad(theta, stats)

    result = optimize.maximize(objective, init)
    hess = model.f_hessian(result.argmax, stats)
    fact, _ = _neg_hessian_factorization(hess, diag)
    return GaussianVariational(result.argmax, fact.inverse())


def _delta_sigma_update(model, mu, stats, diag):
    """Closed-form maximizer of Tr{H Sigma}/2 + log|Sigma|/2 over Sigma."""
    hess = model.f_hessian(mu, stats)
    if model.delta_diagonal:
        d = -np.diag(hess).copy()
        if np.any(d <= 0.0):
            jitter = _JITTER_INIT
            while jitter <= _JITTER_MAX and np.any(d + jitter <= 0.0):
                jitter *= 2.0
            if jitter > _JITTER_MAX:
                raise NonConcaveError("diagonal curvature not negative after jitter")
            if diag is not None:
                diag.setdefault("jitter_events", []).append(jitter)
            d = d + jitter
        return np.diag(1.0 / d), -float(np.sum(np.log(d)))
    fact, _ = _neg_hessian_factorization(hess, diag)
    return fact.inverse(), -fact.log_det


def delta_step(
    model: ModelContract,
    stats: ExpectedStats,
    init_q: GaussianVariational,
    *,
    diag=None,
) -> GaussianVariational:
    """Maximize f(mu) + Tr{H(mu) Sigma}/2 + log|Sigma|/2 by alternation.

    The mu step follows the gradient grad f(mu) + trace_grad(mu, Sigma)/2 at
    fixed Sigma; Sigma then has the closed-form update (-Hessian)^{-1}, or its
    diagonal analogue for models that restrict Sigma to a diagonal.
    """
    mu = np.array(init_q.mu, dtype=float, copy=True)
    sigma = np.array(init_q.sigma, dtype=float, copy=True)
    if model.delta_diagonal:
        sigma = np.diag(np.diag(sigma))

    prev = -np.inf
    for _ in range(_DELTA_INNER_ROUNDS):
        fixed_sigma = sigma

        def objective(theta):
            value, grad = model.f_value_grad(theta, stats)
            if not np.isfinite(value):
                return value, grad
            hess = model.f_hessian(theta, stats)
            t_value = value + 0.5 * float(np.sum(hess * fixed_sigma))
            t_grad = grad + 0.5 * model.trace_grad(theta, fixed_sigma, stats)
            return t_value, t_grad

        result = optimize.maximize(objective, mu)
        mu = result.argmax
        sigma, log_det = _delta_sigma_update(model, mu, stats, diag)
        value, _ = model.f_value_grad(mu, stats)
        hess = model.f_hessian(mu, stats)
        current = value + 0.5 * float(np.sum(hess * sigma)) + 0.5 * log_det
        if diag is not None:
            diag.setdefault("delta_inner", []).append(current)
        if current - prev < _DELTA_INNER_TOL:
            break
        prev = current
    return GaussianVariational(mu, sigma)


def _refit_q_theta(
    model: ModelContract,
    stats: ExpectedStats,
    q_theta: GaussianVariational,
    method: str,
    diag=None,
) -> GaussianVariational:
    """The q(theta) update named by `method`, started from q_theta."""
    if method == "laplace":
        return laplace_step(model, stats, q_theta.mu, diag=diag)
    return delta_step(model, stats, q_theta, diag=diag)


def approx_objective(
    model: ModelContract,
    q_theta: GaussianVariational,
    q_z: ConjugateVariational,
) -> float:
    """Second-order surrogate of the variational objective.

    Expands f to second order around the variational mean, E[f] ~ f(mu) +
    Tr{H Sigma}/2, and adds the Gaussian log-determinant term and the
    conjugate-factor entropy.  The optimized f drops log-joint terms that are
    constant in theta (expected observation likelihood and carrier); they vary
    across outer iterations through q(z), so the model adds them back here via
    qz_model_terms.  A monitor of progress, not the quantity either step
    maximizes directly.
    """
    stats = model.expected_stats(q_z)
    value, _ = model.f_value_grad(q_theta.mu, stats)
    hess = model.f_hessian(q_theta.mu, stats)
    log_det = numerics.spd_factorize(q_theta.sigma).log_det
    return (
        value
        + 0.5 * (float(np.sum(hess * q_theta.sigma)) + log_det)
        + model.qz_entropy(q_z)
        + model.qz_model_terms(q_z)
    )


def run_coordinate_ascent(
    model: ModelContract,
    data,
    init_q_theta: GaussianVariational,
    init_q_z: ConjugateVariational,
    cfg: InferenceConfig | None = None,
    diag=None,
) -> tuple[GaussianVariational, ConjugateVariational, InferenceTrace]:
    """Alternate q(theta) and q(z) updates until the mean stops moving.

    Convergence is the L2 norm of the change in the variational mean dropping
    below cfg.conv_tol.  Any step failure propagates with `trace` attached.
    """
    cfg = cfg or InferenceConfig()
    q_theta = GaussianVariational(
        np.array(init_q_theta.mu, dtype=float, copy=True),
        np.array(init_q_theta.sigma, dtype=float, copy=True),
    )
    q_z = init_q_z
    trace = InferenceTrace()
    start = time.perf_counter()
    try:
        for it in range(1, cfg.max_outer_iters + 1):
            stats = model.expected_stats(q_z)
            prev_mu = q_theta.mu
            q_theta = _refit_q_theta(model, stats, q_theta, cfg.method, diag)
            q_z = model.conjugate_update(q_theta, data)
            mean_change = float(np.linalg.norm(q_theta.mu - prev_mu))
            objective = approx_objective(model, q_theta, q_z)
            trace.append(
                TraceRecord(it, objective, mean_change, time.perf_counter() - start)
            )
            if mean_change < cfg.conv_tol:
                trace.converged = True
                break
    except ArithmeticError as err:
        err.trace = trace
        raise
    return q_theta, q_z, trace
