"""Coordinate-ascent engine alternating a Gaussian q(theta) with a conjugate q(z).

Two interchangeable q(theta) updates, both climbing by damped Newton steps
(optimize.maximize) along the model's newton_direction:

- laplace_step: maximize f and set the covariance from the curvature at the
  mode m, Sigma = (-Hessian f(m))^{-1}.
- delta_step: maximize the curvature-corrected objective
  f(mu) + Tr{Hessian_f(mu) Sigma}/2 + log|Sigma|/2 by one Newton ascent of its
  profile g(mu) = f(mu) + (log|Sigma(mu)| - dim)/2 at the closed-form Sigma
  update Sigma(mu) = (-Hessian f(mu))^{-1}, or the inverse diagonal.

Each model owns its curvature; the engine handles no Hessian matrix.  Both
refits take Sigma and log|Sigma| from the model's covariance, one factor of
f's negated curvature, and return (q, log|Sigma|, converged), converged
meaning that every Newton ascent of the refit reached the optimizer's
grad_tol; the monitor approx_objective reuses that log|Sigma|.  The engine
keeps the jitter policy, the capped jitter and NonConcaveError guarding Sigma.
The q(z) update is each model's conjugate_update.
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


def _covariance(model: ModelContract, theta, stats: ExpectedStats, diagonal: bool, diag=None):
    """The model's Sigma and log|Sigma| at theta, and the diagonal jitter,
    doubling from _JITTER_INIT, that its negated curvature needed."""
    jitter = 0.0
    while jitter <= _JITTER_MAX:
        try:
            sigma, log_det = model.covariance(theta, stats, jitter, diagonal)
        except numerics.NotPositiveDefiniteError:
            jitter = 2.0 * jitter or _JITTER_INIT
            continue
        if jitter and diag is not None:
            diag.setdefault("jitter_events", []).append(jitter)
        return sigma, log_det, jitter
    raise NonConcaveError(f"negated Hessian not positive definite after jitter {_JITTER_MAX:g}")


def _objective(model: ModelContract, stats: ExpectedStats, shift=None):
    """f or, given a shift, the delta profile g = f + (log|Sigma| - dim)/2 at
    Sigma = model.covariance(theta, stats, shift, delta_diagonal), -inf where
    that is undefined; with the gradient, by the envelope theorem
    grad f + trace_grad(theta, Sigma)/2, and the model's Newton direction."""

    def objective(theta):
        value, grad = model.f_value_grad(theta, stats)
        if not np.isfinite(value):
            return value, grad, grad
        if shift is None:
            return value, grad, model.newton_direction(theta, stats, grad)
        try:
            sigma, log_det = model.covariance(theta, stats, shift, model.delta_diagonal)
        except numerics.NotPositiveDefiniteError:
            return -np.inf, grad, grad
        grad = grad + 0.5 * model.trace_grad(theta, sigma, stats)
        value += 0.5 * (log_det - model.dim)
        return value, grad, model.newton_direction(theta, stats, grad, sigma)

    return objective


def laplace_step(
    model: ModelContract,
    stats: ExpectedStats,
    init: np.ndarray,
    *,
    diag=None,
) -> tuple[GaussianVariational, float, bool]:
    """Fit q(theta) = N(m, (-Hessian f(m))^{-1}) at the mode m of f.

    Returns q, log|Sigma| and whether the ascent to m converged.
    """
    result = optimize.maximize(_objective(model, stats), init)
    sigma, log_det, _ = _covariance(model, result.argmax, stats, False, diag)
    return GaussianVariational(result.argmax, sigma), log_det, result.converged


def delta_step(
    model: ModelContract,
    stats: ExpectedStats,
    init_q: GaussianVariational,
    *,
    diag=None,
) -> tuple[GaussianVariational, float, bool]:
    """Maximize f(mu) + Tr{H(mu) Sigma}/2 + log|Sigma|/2 by one Newton ascent
    of its profile from init_q's mean, with Sigma's curvature shifted by the
    jitter the start needed (g stays an exact profile at a fixed shift).
    Where no jitter within the cap defines Sigma there, the ascent first
    climbs f.  Returns q, log|Sigma| and whether every ascent converged."""
    mu, converged = init_q.mu, True
    try:
        shift = _covariance(model, mu, stats, model.delta_diagonal, diag)[2]
    except NonConcaveError:
        result = optimize.maximize(_objective(model, stats), mu)
        mu, converged = result.argmax, result.converged
        shift = _covariance(model, mu, stats, model.delta_diagonal, diag)[2]
    result = optimize.maximize(_objective(model, stats, shift), mu)
    sigma, log_det = model.covariance(result.argmax, stats, shift, model.delta_diagonal)
    return GaussianVariational(result.argmax, sigma), log_det, converged and result.converged


def _refit_q_theta(
    model: ModelContract,
    stats: ExpectedStats,
    q_theta: GaussianVariational,
    method: str,
    diag=None,
) -> tuple[GaussianVariational, float, bool]:
    """The q(theta) update named by `method`, started from q_theta."""
    if method == "laplace":
        return laplace_step(model, stats, q_theta.mu, diag=diag)
    if method == "delta":
        return delta_step(model, stats, q_theta, diag=diag)
    raise ValueError(f"unknown method '{method}'")


def approx_objective(
    model: ModelContract,
    q_theta: GaussianVariational,
    q_z: ConjugateVariational,
    log_det: float,
) -> float:
    """Second-order surrogate of the variational objective.

    Expands f to second order around the variational mean, E[f] ~ f(mu) +
    Tr{H Sigma}/2, and adds the Gaussian term log|Sigma|/2, from the
    log_det of the factor that produced Sigma, and the conjugate-factor
    entropy.  The optimized f drops log-joint terms that are
    constant in theta (expected observation likelihood and carrier); they vary
    across outer iterations through q(z), so the model adds them back here via
    qz_model_terms.  A monitor of progress, not the quantity either step
    maximizes directly.
    """
    stats = model.expected_stats(q_z)
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
    diag=None,
) -> tuple[GaussianVariational, ConjugateVariational, InferenceTrace]:
    """Alternate q(theta) and q(z) updates until the mean stops moving.

    The loop stops once the L2 norm of the change in the variational mean
    drops below cfg.conv_tol.  The run has converged if the last q(theta)
    refit's ascents also reached the optimizer's grad_tol, so a refit that
    stopped short (at its iteration cap, or once steps stopped raising the
    objective) reports converged=False.  Any step failure propagates with
    `trace` attached.
    """
    cfg = cfg or InferenceConfig()
    q_theta, q_z = init_q_theta, init_q_z
    trace = InferenceTrace()
    start = time.perf_counter()
    try:
        for it in range(1, cfg.max_outer_iters + 1):
            stats = model.expected_stats(q_z)
            prev_mu = q_theta.mu
            q_theta, log_det, refit_converged = _refit_q_theta(
                model, stats, q_theta, cfg.method, diag
            )
            q_z = model.conjugate_update(q_theta, data)
            mean_change = float(np.linalg.norm(q_theta.mu - prev_mu))
            objective = approx_objective(model, q_theta, q_z, log_det)
            trace.append(
                TraceRecord(it, objective, mean_change, time.perf_counter() - start)
            )
            if mean_change < cfg.conv_tol:
                trace.converged = refit_converged
                break
    except ArithmeticError as err:
        err.trace = trace
        raise
    return q_theta, q_z, trace
