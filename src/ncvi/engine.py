"""Coordinate-ascent engine alternating a Gaussian q(theta) with a conjugate q(z).

One implementation, run on a stack of problems, one per row.  Each q(theta)
update is one damped Newton ascent (optimize.newton) of every row at once:

- laplace: maximize f; Sigma = (-Hessian f(m))^{-1} at the mode m.
- delta: maximize f(mu) + Tr{Hessian_f(mu) Sigma}/2 + log|Sigma|/2 by one
  ascent of its profile g(mu) = f(mu) + (log|Sigma(mu)| - dim)/2 at the
  closed-form Sigma(mu) = (-Hessian f(mu))^{-1}, or the inverse diagonal.

The outer loop retires each row once its mean stops moving.  It runs on a
rows object over a leading row axis: `select(keep)`, `ascent(stats, shift)`
(newton's evaluate for f, or for g at a shift), `covariance` (Sigma and
log|Sigma| from one factor of f's negated curvature), `conjugate_update`,
`expected_stats` and `monitor` (the approximate objective at the expected
statistics it is given).  `ctm` packs its documents as rows; `_ModelRows`
runs a list of ModelContracts, one model per row: `blr`'s tasks, or a stack
of one, the dense reference path behind `laplace_step`, `delta_step` and
`run_coordinate_ascent`.  The engine handles no Hessian matrix: it keeps
the jitter policy, one jitter for the stack, and NonConcaveError.
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
        if not self.conv_tol > 0.0:  # NaN too
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


def _covariance(rows, theta, stats, diagonal: bool):
    """Sigma and log|Sigma| per row at theta, and the diagonal jitter,
    doubling from _JITTER_INIT, that the stack's negated curvature needed."""
    jitter = 0.0
    while jitter <= _JITTER_MAX:
        try:
            return (*rows.covariance(theta, stats, jitter, diagonal), jitter)
        except numerics.NotPositiveDefiniteError:
            jitter = 2.0 * jitter or _JITTER_INIT
    raise NonConcaveError(f"negated Hessian not positive definite after jitter {_JITTER_MAX:g}")


def _refit(rows, stats, mu, method: str):
    """The q(theta) update named by `method` for every row, from the means mu:
    the new means, Sigma, log|Sigma| and, per row, whether every Newton ascent
    reached the optimizer's grad_tol.  The delta profile's Sigma is shifted by
    the jitter the start needed (g stays an exact profile at a fixed shift);
    where no jitter within the cap defines Sigma there, the rows first climb f."""
    if method == "laplace":
        result = optimize.newton(rows.ascent(stats), mu)
        sigma, log_det, _ = _covariance(rows, result.argmax, stats, False)
        return result.argmax, sigma, log_det, result.converged
    converged = True
    try:
        shift = _covariance(rows, mu, stats, rows.delta_diagonal)[2]
    except NonConcaveError:
        result = optimize.newton(rows.ascent(stats), mu)
        mu, converged = result.argmax, result.converged
        shift = _covariance(rows, mu, stats, rows.delta_diagonal)[2]
    result = optimize.newton(rows.ascent(stats, shift), mu)
    sigma, log_det = rows.covariance(result.argmax, stats, shift, rows.delta_diagonal)
    return result.argmax, sigma, log_det, converged & result.converged


def _ascend(rows, mu, stats, cfg: InferenceConfig, traces: list[InferenceTrace]):
    """Alternate q(theta) and q(z) updates on every row at once, from the
    means mu and the expected statistics of the starting q(z).

    A row retires once the L2 norm of its mean's change drops below
    cfg.conv_tol; it has converged if its last refit's ascents also reached
    the optimizer's grad_tol, so a refit that stopped short (at its iteration
    cap, or once steps stopped raising the objective) reports converged=False
    in the row's trace.  Returns the means, each row's Sigma and approximate
    objective, and the last q(z) update (of the rows active then)."""
    mu = np.array(mu, dtype=float)
    sigma, objective = [None] * len(mu), np.zeros(len(mu))
    active = np.arange(len(mu))
    start = time.perf_counter()
    for it in range(1, cfg.max_outer_iters + 1):
        new_mu, new_sigma, log_det, converged = _refit(rows, stats, mu[active], cfg.method)
        q_z = rows.conjugate_update(new_mu, new_sigma)
        stats = rows.expected_stats(q_z)
        objective[active] = rows.monitor(new_mu, new_sigma, q_z, stats, log_det)
        change = np.linalg.norm(new_mu - mu[active], axis=1)
        mu[active] = new_mu
        seconds = time.perf_counter() - start
        for d, s, c, ok in zip(active, new_sigma, change, converged):
            sigma[d] = s
            traces[d].append(TraceRecord(it, float(objective[d]), float(c), seconds))
            traces[d].converged = bool(c < cfg.conv_tol and ok)
        keep = np.flatnonzero(change >= cfg.conv_tol)
        if not keep.size:
            break
        if keep.size < active.size:
            rows, stats, active = rows.select(keep), stats[keep], active[keep]
    return mu, sigma, objective, q_z


class _ModelRows:
    """ModelContracts as rows, one model per row, for the refit and the loop
    above: the dense reference path.  Sigma, stats and q(z) are lists, one
    item per model, and log|Sigma| an array.  It has no `select`: a stack of
    one ends with its one row, and a stack of many only refits."""

    def __init__(self, models: list[ModelContract], data=None):
        self.models, self.data, self.delta_diagonal = models, data, models[0].delta_diagonal

    def ascent(self, stats, shift=None):
        """f or, given a shift, the delta profile g = f + (log|Sigma| - dim)/2
        at Sigma = model.covariance(theta, stats, shift, delta_diagonal), -inf
        where that is undefined; with the gradient, by the envelope theorem
        grad f + trace_grad(theta, Sigma)/2, and the model's Newton direction."""

        def row(model, theta, stats):
            sigma = None
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
            return value, grad, direction

        def evaluate(points, rows):
            out = zip(*(row(self.models[r], x, stats[r]) for x, r in zip(points, rows)))
            return tuple(np.array(a, dtype=float) for a in out)

        return evaluate

    def covariance(self, theta, stats, shift, diagonal):
        sigma, log_det = zip(*(
            m.covariance(t, s, shift, diagonal) for m, t, s in zip(self.models, theta, stats)
        ))
        return list(sigma), np.array(log_det)

    def conjugate_update(self, mu, sigma):
        return [model.conjugate_update(GaussianVariational(m, s), self.data)
                for model, m, s in zip(self.models, mu, sigma)]

    def expected_stats(self, q_z):
        return [m.expected_stats(q) for m, q in zip(self.models, q_z)]

    def monitor(self, mu, sigma, q_z, stats, log_det):
        return np.array([
            approx_objective(model, GaussianVariational(m, s), q, st, ld)
            for model, m, s, q, st, ld in zip(self.models, mu, sigma, q_z, stats, log_det)
        ])


def _step(model, stats, mu, method):
    mu, sigma, log_det, converged = _refit(_ModelRows([model]), [stats], [mu], method)
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
        mu, sigma, _, q_z = _ascend(
            _ModelRows([model], data), [init_q_theta.mu], [model.expected_stats(init_q_z)],
            cfg or InferenceConfig(), [trace],
        )
    except ArithmeticError as err:
        err.trace = trace
        raise
    return GaussianVariational(mu[0], sigma[0]), q_z[0], trace
