"""Nonlinear conjugate-gradient ascent with backtracking line search.

Maximizes a smooth objective given a callable returning (value, gradient).
Polak-Ribiere directions with nonnegativity clipping, periodic steepest
restarts, and Armijo backtracking from a unit step.  Deterministic: same
objective, start, and config always produce the same iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptimizerConfig",
    "OptimResult",
    "LineSearchStallError",
    "maximize",
]

_MAX_SHRINKS = 50
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_ARMIJO_C = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    grad_tol: float = 1e-6
    max_iters: int = 1000

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class OptimResult:
    argmax: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool


class LineSearchStallError(ArithmeticError):
    """Backtracking exhausted its shrink budget without an accepted step.

    Carries the best iterate found so far in `best`.
    """

    def __init__(self, best: OptimResult):
        self.best = best
        super().__init__(
            f"line search stalled after {_MAX_SHRINKS} shrinks "
            f"(value {best.value:.6g}, grad norm {best.grad_norm:.3e})"
        )


def maximize(objective, init, config: OptimizerConfig | None = None, *, history=None) -> OptimResult:
    """Ascend `objective` from `init` until the gradient norm drops below tol.

    `objective(x)` must return (value, gradient).  Accepted iterates are
    monotone nondecreasing in value; `history`, when given a list, receives
    the value at init and after every accepted step.
    """
    cfg = config or OptimizerConfig()
    x = np.array(init, dtype=float, copy=True)
    if x.ndim != 1:
        raise ValueError("maximize expects a 1-D starting point")
    value, grad = objective(x)
    value = float(value)
    grad = np.asarray(grad, dtype=float)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ValueError("objective is not finite at the starting point")
    if history is not None:
        history.append(value)

    restart = max(1, x.size)
    direction = grad.copy()
    iterations = 0
    grad_norm = float(np.linalg.norm(grad))
    stagnant = 0

    for it in range(1, cfg.max_iters + 1):
        if grad_norm <= cfg.grad_tol:
            return OptimResult(x, value, grad_norm, iterations, True)

        slope = float(grad @ direction)
        if slope <= 0.0:
            # not an ascent direction; fall back to steepest ascent
            direction = grad.copy()
            slope = grad_norm * grad_norm

        def probe(step):
            p_value, p_grad = objective(x + step * direction)
            p_value = float(p_value)
            p_grad = np.asarray(p_grad, dtype=float)
            ok = np.isfinite(p_value) and np.all(np.isfinite(p_grad))
            passes = ok and p_value >= value + _ARMIJO_C * step * slope
            return p_value, p_grad, ok, passes

        def slope_fit(step, p_grad):
            # zero of the directional derivative interpolated from its
            # values at 0 and at `step`; reconstructs the exact line
            # maximizer when the objective is quadratic along the ray, and
            # stays accurate where value differences fall below rounding
            denom = slope - float(p_grad @ direction)
            if denom <= 0.0:
                return None
            fitted = step * slope / denom
            return fitted if np.isfinite(fitted) and fitted > 0.0 else None

        # backtrack from the unit step, using the clamped slope fit as the
        # next trial where available and plain shrinking otherwise
        step = _INITIAL_STEP
        p_value, p_grad, finite, accepted = probe(step)
        for _ in range(_MAX_SHRINKS):
            if accepted:
                break
            fitted = slope_fit(step, p_grad) if finite else None
            if fitted is not None:
                step = min(max(fitted, 0.1 * step), _SHRINK * step)
            else:
                step *= _SHRINK
            p_value, p_grad, finite, accepted = probe(step)
        if not accepted:
            raise LineSearchStallError(
                OptimResult(x, value, grad_norm, iterations, False)
            )
        # one unclamped refinement from the accepted sample, kept when it
        # passes and either improves the value or flattens the directional
        # derivative; this lands the exact step on quadratics so successive
        # directions stay conjugate
        fitted = slope_fit(step, p_grad)
        if fitted is not None and abs(fitted - step) > 1e-12 * step:
            r_value, r_grad, r_ok, r_passes = probe(fitted)
            if r_passes and (
                r_value > p_value
                or abs(float(r_grad @ direction)) <= abs(float(p_grad @ direction))
            ):
                step, p_value, p_grad = fitted, r_value, r_grad
        t_value, t_grad = p_value, p_grad
        trial = x + step * direction

        stagnant = stagnant + 1 if t_value <= value else 0
        if it % restart == 0 or stagnant:
            # scheduled restart, or a non-improving step: retry along
            # steepest ascent before concluding progress has floored
            direction = t_grad.copy()
        else:
            gg = grad_norm * grad_norm
            beta = max(0.0, float(t_grad @ (t_grad - grad)) / gg)
            direction = t_grad + beta * direction
        x = trial
        value = t_value
        grad = t_grad
        grad_norm = float(np.linalg.norm(grad))
        iterations = it
        if history is not None:
            history.append(value)
        if stagnant >= 2:
            # even steepest ascent stopped improving at double precision;
            # further steps cannot tighten the gradient
            break

    return OptimResult(x, value, grad_norm, iterations, grad_norm <= cfg.grad_tol)
