"""Special functions and dense SPD linear algebra shared by every model.

The gamma family (ln Gamma, psi, psi', psi'') and the sigmoids are thin
wrappers over scipy.special that add the contract the models rely on: the
gamma family raises ValueError for a non-finite or non-positive argument, and
a scalar or 0-d argument gives a Python float while an array keeps its shape.
Everything here is stateless and safe to call from worker threads.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as _sps
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


def _validated_positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite positive arguments")
    return arr


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def log_gamma(x):
    """ln Gamma(x) for x > 0, scalar or array."""
    return _float_or_array(_sps.gammaln(_validated_positive(x, "log_gamma")))


def digamma(x):
    """Psi(x), the derivative of ln Gamma, for x > 0."""
    return _float_or_array(_sps.psi(_validated_positive(x, "digamma")))


def trigamma(x):
    """Psi'(x) = zeta(2, x), the second derivative of ln Gamma, for x > 0."""
    return _float_or_array(_sps.zeta(2.0, _validated_positive(x, "trigamma")))


def polygamma_2(x):
    """Psi''(x) = -2 zeta(3, x), the third derivative of ln Gamma, for x > 0."""
    return _float_or_array(
        -2.0 * _sps.zeta(3.0, _validated_positive(x, "polygamma_2"))
    )


# hand-written: scipy's logsumexp/softmax take 90/12 us vs 9/10 us on CTM's 5-vectors
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
    return _float_or_array(_sps.log_expit(np.asarray(a, dtype=float)))


def sigmoid(a):
    """1 / (1 + exp(-a)) without overflow for large |a|."""
    return _float_or_array(_sps.expit(np.asarray(a, dtype=float)))


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
