"""Special functions and dense SPD linear algebra shared by every model.

The gamma-family functions are evaluated by shifting the argument above a
fixed threshold with the upward recurrence and then applying the asymptotic
(de Moivre / Bernoulli) series.  Everything here is stateless and safe to
call from worker threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack as _lapack

__all__ = [
    "log_gamma",
    "digamma",
    "trigamma",
    "polygamma_2",
    "softmax",
    "log_sum_exp",
    "log_sigmoid",
    "sigmoid",
    "NotPositiveDefiniteError",
    "SpdFactorization",
    "spd_factorize",
    "finite_diff_gradient",
]

_HALF_LN_2PI = 0.9189385332046727417803297364056176398
_SHIFT = 8.0

# Bernoulli-number coefficients B_{2n} / (2n (2n - 1)) of the series for
# ln Gamma, n = 1..7.  Truncation error at x = 8 is below 1e-15.
_LGAMMA_C = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

# B_{2n} / (2n) for the digamma series.
_DIGAMMA_C = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# B_{2n} for the trigamma series.
_TRIGAMMA_C = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

# (2n + 1) B_{2n} for the second derivative of digamma.
_POLYGAMMA2_C = (
    1.0 / 2.0,
    -1.0 / 6.0,
    1.0 / 6.0,
    -3.0 / 10.0,
    5.0 / 6.0,
    -691.0 / 210.0,
    35.0 / 2.0,
)


def _validated_positive(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.array(x, dtype=float, copy=True)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite positive arguments")
    return arr, scalar


def _shift_up(y: np.ndarray, accumulate) -> None:
    # Raise every entry above the series threshold in place; `accumulate`
    # receives (mask, values_below) once per recurrence round.
    while True:
        mask = y < _SHIFT
        if not mask.any():
            return
        accumulate(mask, y[mask])
        y[mask] += 1.0


def _horner(r2: np.ndarray, coeffs) -> np.ndarray:
    # coeffs[0] + coeffs[1]*r2 + coeffs[2]*r2^2 + ...; signs live in coeffs.
    acc = np.full_like(r2, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = c + r2 * acc
    return acc


def log_gamma(x):
    """ln Gamma(x) for x > 0, scalar or array."""
    y, scalar = _validated_positive(x, "log_gamma")
    shift = np.zeros_like(y)

    def acc(mask, vals):
        shift[mask] += np.log(vals)

    _shift_up(y, acc)
    r = 1.0 / y
    r2 = r * r
    series = r * _horner(r2, _LGAMMA_C)
    out = (y - 0.5) * np.log(y) - y + _HALF_LN_2PI + series - shift
    return float(out[0]) if scalar else out


def digamma(x):
    """Psi(x), the derivative of ln Gamma, for x > 0."""
    y, scalar = _validated_positive(x, "digamma")
    shift = np.zeros_like(y)

    def acc(mask, vals):
        shift[mask] -= 1.0 / vals

    _shift_up(y, acc)
    r = 1.0 / y
    r2 = r * r
    out = np.log(y) - 0.5 * r - r2 * _horner(r2, _DIGAMMA_C) + shift
    return float(out[0]) if scalar else out


def trigamma(x):
    """Psi'(x), the second derivative of ln Gamma, for x > 0."""
    y, scalar = _validated_positive(x, "trigamma")
    shift = np.zeros_like(y)

    def acc(mask, vals):
        shift[mask] += 1.0 / (vals * vals)

    _shift_up(y, acc)
    r = 1.0 / y
    r2 = r * r
    out = r + 0.5 * r2 + r * r2 * _horner(r2, _TRIGAMMA_C) + shift
    return float(out[0]) if scalar else out


def polygamma_2(x):
    """Psi''(x), the third derivative of ln Gamma, for x > 0.

    Needed by models whose curvature-trace gradients involve third
    derivatives of the nonconjugate exponent.
    """
    y, scalar = _validated_positive(x, "polygamma_2")
    shift = np.zeros_like(y)

    def acc(mask, vals):
        shift[mask] -= 2.0 / (vals * vals * vals)

    _shift_up(y, acc)
    r = 1.0 / y
    r2 = r * r
    out = -r2 - r * r2 - r2 * r2 * _horner(r2, _POLYGAMMA2_C) + shift
    return float(out[0]) if scalar else out


def log_sum_exp(a, axis=None):
    a = np.asarray(a, dtype=float)
    if axis is None:
        m = float(np.max(a))
        return m + math.log(float(np.sum(np.exp(a - m))))
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def softmax(a, axis=-1):
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    e = np.exp(a - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_sigmoid(a):
    """ln sigma(a) evaluated without overflow for large |a|."""
    return -np.logaddexp(0.0, -np.asarray(a, dtype=float))


def sigmoid(a):
    arr = np.array(a, dtype=float, copy=True)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr)
    out = np.empty_like(flat)
    pos = flat >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-flat[pos]))
    ea = np.exp(flat[~pos])
    out[~pos] = ea / (1.0 + ea)
    return float(out[0]) if scalar else out.reshape(arr.shape)


class NotPositiveDefiniteError(ArithmeticError):
    """Cholesky factorization hit a nonpositive pivot.

    `pivot` is the zero-based index of the failing leading minor.
    """

    def __init__(self, pivot: int):
        self.pivot = int(pivot)
        super().__init__(
            f"matrix is not positive definite (failing pivot {self.pivot})"
        )


class SpdFactorization:
    """Lower-triangular Cholesky handle exposing log_det and inverse."""

    def __init__(self, lower: np.ndarray):
        self._chol = lower

    @property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def inverse(self) -> np.ndarray:
        inv, info = _lapack.dpotri(self._chol, lower=1)
        if info != 0:
            raise ValueError(f"dpotri failed with info={info}")
        # dpotri fills one triangle only
        out = np.tril(inv) + np.tril(inv, -1).T
        return out


def spd_factorize(m: np.ndarray) -> SpdFactorization:
    """Cholesky-factorize a symmetric positive definite matrix.

    No pivoting: a nonpositive pivot raises NotPositiveDefiniteError carrying
    the failing index, which jitter policies upstream rely on.  Symmetry is
    required up to 1e-12 relative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spd_factorize requires a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("spd_factorize requires finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise ValueError("spd_factorize requires a symmetric matrix")
    c, info = _lapack.dpotrf(m, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=info - 1)
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    return SpdFactorization(np.tril(c))


def _factorize_input(m: np.ndarray, name: str) -> SpdFactorization:
    """spd_factorize for a covariance given as input: one that is not
    positive definite is an input error (ValueError), not a numerical one."""
    try:
        return spd_factorize(m)
    except NotPositiveDefiniteError:
        raise ValueError(f"{name} must be positive definite") from None


def finite_diff_gradient(f, x: np.ndarray, h=None) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Per-coordinate step defaults to 1e-5 * max(1, |x_i|).  Non-finite
    function values are rejected rather than silently propagated.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("finite_diff_gradient expects a 1-D point")
    if h is None:
        steps = 1e-5 * np.maximum(1.0, np.abs(x))
    else:
        h = float(h)
        if h <= 0.0:
            raise ValueError("finite_diff_gradient requires h > 0")
        steps = np.full(x.shape, h)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = steps[i]
        hi = f(x + e)
        lo = f(x - e)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ArithmeticError(
                f"non-finite function value in finite difference at coordinate {i}"
            )
        g[i] = (hi - lo) / (2.0 * steps[i])
    return g
