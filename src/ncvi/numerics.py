"""Special functions and SPD linear algebra shared by every model.

The gamma family (ln Gamma, psi, psi', psi'') wraps scipy.special, loaded on
first use (only unigram and `model.dirichlet_entropy` reach it), and raises
ValueError for a non-finite or non-positive argument.  The sigmoids are numpy.
Both give a Python float for a scalar or 0-d argument and keep an array's
shape.  The SPD matrices are dense Cholesky factors from numpy, of one matrix
or of a stack, or diagonal plus rank one.  Everything here is stateless.
"""

from __future__ import annotations

import math

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
]


def _validated_positive(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError(f"{name} requires finite positive arguments")
    return arr


def _float_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _sps():
    import scipy.special  # here, not at the top: its import costs every command ~0.3 s
    return scipy.special


def log_gamma(x):
    """ln Gamma(x) for x > 0, scalar or array."""
    return _float_or_array(_sps().gammaln(_validated_positive(x, "log_gamma")))


def digamma(x):
    """Psi(x), the derivative of ln Gamma, for x > 0."""
    return _float_or_array(_sps().psi(_validated_positive(x, "digamma")))


def trigamma(x):
    """Psi'(x) = zeta(2, x), the second derivative of ln Gamma, for x > 0."""
    return _float_or_array(_sps().zeta(2.0, _validated_positive(x, "trigamma")))


def polygamma_2(x):
    """Psi''(x) = -2 zeta(3, x), the third derivative of ln Gamma, for x > 0."""
    return _float_or_array(-2.0 * _sps().zeta(3.0, _validated_positive(x, "polygamma_2")))


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

    No pivoting: a nonpositive pivot raises NotPositiveDefiniteError, which
    the jitter and shift policies upstream rely on, and a non-finite entry
    NonFiniteMatrixError.  Symmetry is required up to 1e-12 relative.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("spd_factorize requires square matrices")
    if not np.all(np.isfinite(m)):
        raise NonFiniteMatrixError("matrix overflowed: it has non-finite entries")
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    if np.any(np.max(np.abs(m - m.swapaxes(-1, -2)), axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("spd_factorize requires a symmetric matrix")
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
    """spd_factorize for a covariance given as input: one that is not finite
    and positive definite is an input error (ValueError), not a numerical one."""
    try:
        return spd_factorize(m)
    except (NotPositiveDefiniteError, NonFiniteMatrixError):
        raise ValueError(f"{name} must be finite and positive definite") from None


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
