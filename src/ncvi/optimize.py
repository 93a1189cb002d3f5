"""Damped Newton ascent, one problem per row.

`newton` climbs every row of a batch at once.  The caller supplies, per row,
the objective, its gradient, the Newton direction (the solve of a positive
definite Newton matrix against the gradient) and any arrays it wants back
from the final point.  Steps halve from the full Newton step until the
Armijo test passes, within one rounding unit of the value, each row on its
own, so a row's iterates do not depend on the rest of its batch.  `maximize`
is the one-row entry point; `dense_direction` and `shifted_solve` give
directions where the Newton matrix may be indefinite.  Deterministic: the
same objective, start and config always give the same iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics

__all__ = [
    "OptimizerConfig",
    "OptimResult",
    "LineSearchStallError",
    "NonFiniteStartError",
    "newton",
    "maximize",
    "dense_direction",
    "shifted_solve",
]

_MAX_SHRINKS = 50
_SHRINK = 0.5
_ARMIJO_C = 1e-4
# rounding of an objective value, relative to its size: a long sum of
# terms much larger than their total is rounded about this much
_ROUNDING = 1e-14
# smallest diagonal shift of an indefinite Newton matrix, relative to its
# largest diagonal entry; the shift then grows tenfold until the matrix is
# positive definite
_SHIFT_MIN = 1e-3


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
    """Where an ascent stopped; from `newton`, one entry per row in each field."""

    argmax: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    extras: tuple = ()


class NonFiniteStartError(ValueError):
    """The objective or its gradient is not finite where the ascent starts."""


class LineSearchStallError(ArithmeticError):
    """Backtracking exhausted its shrink budget without an accepted step.

    Carries the best iterate of the stalled row in `best`.
    """

    def __init__(self, best: OptimResult):
        self.best = best
        super().__init__(
            f"line search stalled after {_MAX_SHRINKS} shrinks "
            f"(value {best.value:.6g}, grad norm {best.grad_norm:.3e})"
        )


def newton(evaluate, x, config: OptimizerConfig | None = None) -> OptimResult:
    """Damped Newton ascent of one problem per row of x, each on its own.

    `evaluate(x, rows)` gives, for the problems `rows` at the points x (one
    per row), the objective values, their gradients and the Newton
    directions, then any further per-row arrays, returned as `extras` from
    the evaluation that accepted each row's final point; a direction is only
    used where the value and gradient are finite.  A row stops at grad_tol,
    once an accepted step no longer raises its value, or at max_iters.  A
    start where a value or gradient is not finite raises NonFiniteStartError.
    """
    cfg = config or OptimizerConfig()
    x = np.array(x, dtype=float)
    rows = np.arange(len(x))
    value, grad, direction, *extras = evaluate(x, rows)
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(grad))):
        raise NonFiniteStartError("objective is not finite at the starting point")
    extras = tuple(e.copy() for e in extras)
    final_value = value.copy()
    grad_norm = _row_norms(grad)
    converged = _converged(value, grad, direction, grad_norm, cfg)
    iterations = np.zeros(len(x), dtype=int)
    run = grad_norm > cfg.grad_tol
    for it in range(cfg.max_iters):
        rows, value, grad, direction = rows[run], value[run], grad[run], direction[run]
        if not rows.size:
            break
        slope = np.einsum("dk,dk->d", grad, direction)
        # one rounding unit of slack: a step whose predicted gain is below
        # the value's rounding passes or fails on its last bits otherwise
        armijo_floor = value - _rounding(value)
        step = np.ones(rows.size)
        trial, new_grad, new_dir = (np.empty_like(grad) for _ in range(3))
        new_value = np.empty_like(value)
        todo = np.arange(rows.size)
        for _ in range(_MAX_SHRINKS + 1):
            trial[todo] = x[rows[todo]] + step[todo, None] * direction[todo]
            v, g, d, *e = evaluate(trial[todo], rows[todo])
            ok = np.isfinite(v) & np.all(np.isfinite(g), axis=1)
            ok &= v >= armijo_floor[todo] + _ARMIJO_C * step[todo] * slope[todo]
            new_value[todo[ok]], new_grad[todo[ok]], new_dir[todo[ok]] = v[ok], g[ok], d[ok]
            for kept, part in zip(extras, e):
                kept[rows[todo[ok]]] = part[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            step[todo] *= _SHRINK
        else:
            bad = todo[0]
            raise LineSearchStallError(OptimResult(
                x[rows[bad]], float(value[bad]), float(_row_norms(grad[bad, None])[0]), it, False
            ))
        x[rows] = trial
        new_norm = _row_norms(new_grad)
        final_value[rows], grad_norm[rows] = new_value, new_norm
        converged[rows] = _converged(new_value, new_grad, new_dir, new_norm, cfg)
        iterations[rows] += 1
        run = (new_value > value) & (new_norm > cfg.grad_tol)
        value, grad, direction = new_value, new_grad, new_dir
    return OptimResult(x, final_value, grad_norm, iterations, converged, extras)


def _row_norms(grad):
    """Euclidean norm of each row; inf, silently, where its squares overflow:
    such a gradient is as far from grad_tol as any."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(grad, axis=1)


def _converged(value, grad, direction, grad_norm, cfg):
    """Rows within grad_tol, or whose Newton step predicts a gain g'd/2 below
    the rounding of their value: no step can raise it measurably there."""
    gain = 0.5 * np.einsum("dk,dk->d", grad, direction)
    return (grad_norm <= cfg.grad_tol) | (gain <= _rounding(value))


def _rounding(value):
    return _ROUNDING * np.maximum(np.abs(value), 1.0)


def maximize(objective, init, config: OptimizerConfig | None = None) -> OptimResult:
    """`newton` on one problem: `objective(x)` returns the value, gradient and
    Newton direction at the 1-D point x."""
    x = np.array(init, dtype=float, copy=True)
    if x.ndim != 1:
        raise ValueError("maximize expects a 1-D starting point")

    def evaluate(points, rows):
        value, grad, direction = objective(points[0])
        return np.array([float(value)]), np.asarray(grad, dtype=float)[None], direction[None]

    res = newton(evaluate, x[None, :], config)
    scalars = (res.value, res.grad_norm, res.iterations, res.converged)
    return OptimResult(res.argmax[0], *(a[0].item() for a in scalars))


def shifted_solve(solve, diagonal):
    """`solve(shift)` for a Newton matrix with `diagonal` plus shift * I, at
    shift 0 and then growing tenfold from _SHIFT_MIN * max|diagonal| until
    `solve` returns a direction rather than None (not positive definite).
    A non-finite diagonal raises numerics.NonFiniteMatrixError at once."""
    if not np.all(np.isfinite(diagonal)):
        raise numerics.NonFiniteMatrixError("Newton matrix overflowed: it has non-finite entries")
    shift = 0.0
    floor = _SHIFT_MIN * max(float(np.max(np.abs(diagonal))), 1e-300)
    while (direction := solve(shift)) is None:
        shift = 10.0 * shift or floor
        if not np.isfinite(shift):
            raise ArithmeticError("no diagonal shift makes the Newton matrix positive definite")
    return direction


def _cholesky_solve(matrix, grad):
    try:
        return numerics.spd_factorize(matrix).solve(grad)
    except numerics.NotPositiveDefiniteError:
        return None


def dense_direction(matrix, grad, exact=None):
    """Cholesky solve against `exact` where it is positive definite, else
    against `matrix` (a negated Hessian) shifted until it is."""
    direction = None if exact is None else _cholesky_solve(exact, grad)
    if direction is not None:
        return direction
    eye = np.eye(len(grad))
    return shifted_solve(lambda shift: _cholesky_solve(matrix + shift * eye, grad), np.diag(matrix))
