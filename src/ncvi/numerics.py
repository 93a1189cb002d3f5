"""Special functions and SPD linear algebra shared by every model.

The gamma family (ln Gamma, psi, psi', psi'') is numpy, on the algorithms
of Cephes, which scipy.special wraps; it raises ValueError for a non-finite
or non-positive argument.  The sigmoids are numpy too.  Both give a Python
float for a scalar or 0-d argument and keep an array's shape.  The SPD
matrices are dense Cholesky factors from numpy, of one matrix or of a
stack, or diagonal plus rank one.  Seeded uniforms come from the standard
library's `random`.  Everything here is stateless.
"""

from __future__ import annotations

import functools

import numpy as np

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
    "NonFiniteMatrixError",
    "DiagPlusRankOne",
    "SpdFactorization",
    "spd_factorize",
    "spd_factorize_each",
    "finite_diff_gradient",
    "uniforms",
]


def _validated_positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite positive arguments")
    return arr


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


# Cephes `lgam` (Moshier, "Methods and Programs for Mathematical Functions",
# 1989): ln Gamma(2 + t) = t B(t) / C(t) on [2, 3), and Stirling's correction
# sum A(1/x^2) / x above 13; coefficients highest degree first, C monic
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LN_SQRT_2PI = 0.91893853320467274178
_STIRLING_FROM = 13.0
# psi and its derivatives: the Bernoulli asymptotic series in z = 1/y^2 at
# y = x + 10, carried down to x by ten steps of the recurrence
_SHIFT = 10
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330)
# series of y^-2k terms, highest first, each truncated below 1e-16 relative at y = 10
_PSI_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI[:7], 1))[::-1]
_PSI1_SERIES = _BERNOULLI[:8][::-1]
_PSI2_SERIES = tuple((2 * k + 1) * b for k, b in enumerate(_BERNOULLI[:9], 1))[::-1]


def _horner(coefs, t):
    out = coefs[0]
    for c in coefs[1:]:
        out = out * t + c
    return out


def _gamma_family(kernel):
    """Validate x > 0 and evaluate the kernel on it as an array, without
    warnings: an overflow to inf is the exact limit, as scipy.special gives it."""
    @functools.wraps(kernel)
    def wrapper(x):
        x = _validated_positive(x, kernel.__name__)
        with np.errstate(over="ignore", divide="ignore"):
            return _float_or_array(kernel(x))

    return wrapper


def _carried_down(value, x, numerator, power):
    """A value at x + 10 carried down to x by the recurrence: numerator /
    (x + k)^power added for k = 9, ..., 0, smallest first, so the largest
    term, 1 / x^power for small x, is rounded into the sum once."""
    for k in range(_SHIFT - 1, -1, -1):
        d = x + k
        value = value + numerator / (d if power == 1 else d * d if power == 2 else d * d * d)
    return value


def _stirling(x):
    return (x - 0.5) * np.log(x) - x + _LN_SQRT_2PI + _horner(_LGAM_A, 1.0 / (x * x)) / x


def _lgam_below_stirling(x):
    """ln Gamma by the recurrence into [2, 3): ln Gamma(x + k) there, the
    rational form at t = x + k - 2, less the log of the k factors stepped
    over (x and x + 1 up from below 2, x - 1, x - 2, ... down from 3)."""
    k = np.where(x < 1.0, 2.0, np.where(x < 2.0, 1.0, 2.0 - np.floor(x)))
    t = x + (k - 2.0)
    factors = np.where(k == 2.0, x * (x + 1.0), np.where(k == 1.0, x, 1.0))
    step = x - 1.0
    for _ in range(int(-np.min(k))):
        np.multiply(factors, step, out=factors, where=step >= 2.0)
        step -= 1.0
    log_factors = np.log(factors)
    return np.where(k > 0.0, -log_factors, log_factors) + (
        t * _horner(_LGAM_B, t) / _horner(_LGAM_C, t))


@_gamma_family
def log_gamma(x):
    """ln Gamma(x) for x > 0, scalar or array."""
    big = x >= _STIRLING_FROM
    if big.all():
        return _stirling(x)
    if not big.any():
        return _lgam_below_stirling(x)
    out = np.empty(x.shape)
    out[big] = _stirling(x[big])
    out[~big] = _lgam_below_stirling(x[~big])
    return out


@_gamma_family
def digamma(x):
    """Psi(x), the derivative of ln Gamma, for x > 0."""
    y = x + _SHIFT
    inv = 1.0 / y
    z = inv * inv
    return _carried_down(np.log(y) - 0.5 * inv - z * _horner(_PSI_SERIES, z), x, -1.0, 1)


@_gamma_family
def trigamma(x):
    """Psi'(x) = zeta(2, x), the second derivative of ln Gamma, for x > 0."""
    inv = 1.0 / (x + _SHIFT)
    z = inv * inv
    return _carried_down(inv * (1.0 + 0.5 * inv + z * _horner(_PSI1_SERIES, z)), x, 1.0, 2)


@_gamma_family
def polygamma_2(x):
    """Psi''(x) = -2 zeta(3, x), the third derivative of ln Gamma, for x > 0."""
    inv = 1.0 / (x + _SHIFT)
    z = inv * inv
    return _carried_down(-z * (1.0 + inv + z * _horner(_PSI2_SERIES, z)), x, -2.0, 3)


# hand-written: scipy's logsumexp/softmax take 90/12 us vs 9/10 us on CTM's 5-vectors
def log_sum_exp(a, axis=-1):
    a = np.asarray(a, dtype=float)
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
    return _float_or_array(-np.logaddexp(0.0, -np.asarray(a, dtype=float)))


def sigmoid(a):
    """1 / (1 + exp(-a)); exp(-a) overflowing to inf gives the exact limit 0."""
    with np.errstate(over="ignore"):
        return _float_or_array(1.0 / (1.0 + np.exp(-np.asarray(a, dtype=float))))


class NotPositiveDefiniteError(ArithmeticError):
    """A matrix required to be positive definite is not: a Cholesky pivot or
    a Sherman-Morrison term was nonpositive."""


class NonFiniteMatrixError(ArithmeticError):
    """A matrix required to be positive definite has a non-finite entry: it
    overflowed, and no diagonal shift or jitter makes it definite."""


class DiagPlusRankOne:
    """diag(d) + k u u' in O(V), read as a dense matrix is: `.diagonal()` and
    `@`.  No __array__, and numpy operators refuse it: never densified by accident."""

    __array_ufunc__ = None

    def __init__(self, d: np.ndarray, k: float, u: np.ndarray):
        self._d, self._k, self._u = d, float(k), u

    def diagonal(self) -> np.ndarray:
        return self._d + self._k * self._u * self._u

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        d, u = (self._d, self._u) if x.ndim == 1 else (self._d[:, None], self._u[:, None])
        return d * x + (self._k * u) * (self._u @ x)


class SpdFactorization:
    """Lower-triangular Cholesky factor of one matrix or of a stack (..., n, n),
    exposing log_det, inverse and solve."""

    def __init__(self, lower: np.ndarray):
        self._chol = lower

    @property
    def log_det(self):
        """log|m|, a float for one matrix and one per matrix for a stack."""
        diag = np.diagonal(self._chol, axis1=-2, axis2=-1)
        return _float_or_array(2.0 * np.sum(np.log(diag), axis=-1))

    def inverse(self) -> np.ndarray:
        # L^{-T} L^{-1} from the inverse factor: exactly symmetric and
        # C-ordered, and each matrix of a stack gets the bits it gets alone
        inv_chol = np.linalg.inv(self._chol)
        return np.einsum("...ji,...jk->...ik", inv_chol, inv_chol)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """m^{-1} b, for b shaped as np.linalg.solve takes it."""
        return np.linalg.solve(self._chol.swapaxes(-1, -2), np.linalg.solve(self._chol, b))


def spd_factorize(m: np.ndarray) -> SpdFactorization:
    """Cholesky-factorize a symmetric positive definite matrix, or each matrix
    of a stack (..., n, n).

    Only the lower triangle is read, as np.linalg.cholesky reads it: the
    upper is taken to mirror it, so a rounding asymmetry in a matrix the
    program built is no error.  No pivoting: a nonpositive pivot raises
    NotPositiveDefiniteError, which the jitter and shift policies upstream
    rely on, and a non-finite entry NonFiniteMatrixError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("spd_factorize requires square matrices")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrixError("matrix overflowed: it has non-finite entries")
    try:
        return SpdFactorization(np.linalg.cholesky(m))
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError("not positive definite") from None


def spd_factorize_each(m: np.ndarray) -> tuple[SpdFactorization, np.ndarray]:
    """spd_factorize of a stack (r, n, n) that may hold matrices that are not
    positive definite: one factor per matrix, the identity for those, and a
    mask of the others.  One stacked factorization, or one per matrix where
    that fails."""
    try:
        return spd_factorize(m), np.ones(len(m), dtype=bool)
    except NotPositiveDefiniteError:
        pass
    lower, ok = np.broadcast_to(np.eye(m.shape[-1]), m.shape).copy(), np.zeros(len(m), dtype=bool)
    for r, matrix in enumerate(m):
        try:
            lower[r], ok[r] = spd_factorize(matrix)._chol, True
        except NotPositiveDefiniteError:
            pass
    return SpdFactorization(lower), ok


def _factorize_input(m: np.ndarray, name: str) -> SpdFactorization:
    """spd_factorize for a float covariance given as input: one that is not
    finite, symmetric (to 1e-12 relative) and positive definite is an input
    error (ValueError), not a numerical one."""
    try:
        fact = spd_factorize(m)
    except (NotPositiveDefiniteError, NonFiniteMatrixError):
        raise ValueError(f"{name} must be finite and positive definite") from None
    if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} must be symmetric")
    return fact


def finite_diff_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function, with the step
    1e-5 * max(1, |x_i|) per coordinate.  Non-finite function values are
    rejected rather than silently propagated.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("finite_diff_gradient expects a 1-D point")
    steps = 1e-5 * np.maximum(1.0, np.abs(x))
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


def uniforms(seed, n: int) -> np.ndarray:
    """n draws on [0, 1) of `random.Random(repr(seed)).random()`, a sequence
    Python keeps for a seed: a non-negative int or a tuple of them (an int
    and a tuple never share a stream)."""
    import random

    parts = seed if isinstance(seed, tuple) else (seed,)
    if not all(isinstance(s, int) and s >= 0 for s in parts):
        raise ValueError(f"seed {seed!r} must be a non-negative integer or a tuple of them")
    draw = random.Random(repr(seed)).random
    return np.fromiter((draw() for _ in range(n)), float, n)
