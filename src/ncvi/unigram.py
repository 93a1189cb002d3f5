"""Bag-of-words model with a log-normal prior over Dirichlet parameters.

theta has a standard normal prior; each document draws a term distribution
z_d ~ Dirichlet(exp(theta)) and counts x_d ~ Multinomial(z_d).  The Dirichlet
natural-parameter map eta(theta) = exp(theta) keeps E[eta] available in
closed form, so both the curvature updates and the exact conjugate update
can be exercised end to end on this model.

f's Hessian is diag(h) + c b b' with b = exp(theta) (Minka, "Estimating a
Dirichlet distribution", 2000), so Newton directions, Sigma (held as a
numerics.DiagPlusRankOne), log|Sigma| and Tr{H Sigma} cost O(V): inference
forms no V x V matrix, and only the reference f_hessian is dense.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine, numerics, optimize
from .model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
    dirichlet_entropy,
)

__all__ = ["UnigramModel", "RateUnderflowError", "infer"]

_EXP_GUARD = 700.0


class RateUnderflowError(ArithmeticError):
    """E[exp(theta_i)] underflowed to 0 for a term that a document never uses,
    leaving that document's Dirichlet parameter 0: a numerical failure."""


def _checked_exp(theta: np.ndarray) -> np.ndarray:
    if np.any(theta > _EXP_GUARD):
        i = int(np.argmax(theta > _EXP_GUARD))
        raise OverflowError(f"exp overflow in component {i} (theta={theta[i]:.3g})")
    return np.exp(theta)


# b^2 psi'(b) and b^3 psi''(b) by one step of psi'(b) = psi'(b+1) + 1/b^2 and
# psi''(b) = psi''(b+1) - 2/b^3: finite where b^k underflows to 0 while psi'(b)
# or psi''(b) overflows (tiny rates) and where b^k itself overflows (huge ones).
def _b2_trigamma(b: np.ndarray) -> np.ndarray:
    return 1.0 + b * (b * numerics.trigamma(b + 1.0))


def _b3_polygamma_2(b: np.ndarray) -> np.ndarray:
    return -2.0 + b * (b * (b * numerics.polygamma_2(b + 1.0)))


def _shifted_inverse(h, c, b, shift):
    """(diag(a) - c b b')^{-1}, a = shift - h and c >= 0, by Sherman-Morrison,
    with its log-determinant by the determinant lemma; None where the matrix is
    not positive definite: exactly where a_i or 1 - c b' a^{-1} b is not positive."""
    a = shift - h
    if np.any(a <= 0.0):
        return None
    a_b = b / a
    denom = 1.0 - c * float(b @ a_b)
    if denom <= 0.0:
        return None
    log_det = -(float(np.sum(np.log(a))) + math.log(denom))
    return numerics.DiagPlusRankOne(1.0 / a, c / denom, a_b), log_det


class UnigramModel(ModelContract):
    def __init__(self, vocab_size: int, documents: list[Document]):
        if vocab_size < 2:
            raise ValueError("vocabulary size must be at least 2")
        self._vocab = int(vocab_size)
        self._docs = list(documents)
        self._counts = np.zeros((len(self._docs), self._vocab))
        for d, doc in enumerate(self._docs):
            self._counts[d] = doc.dense(self._vocab)

    @property
    def dim(self) -> int:
        return self._vocab

    @property
    def num_docs(self) -> int:
        return len(self._docs)

    def f_value_grad(self, theta, stats: ExpectedStats):
        theta = np.asarray(theta, dtype=float)
        s = stats.values
        b = np.exp(np.minimum(theta, _EXP_GUARD))
        if np.any(theta > _EXP_GUARD) or not np.all(b > 0.0):
            # exp(theta) past the overflow guard or underflowed to 0: outside
            # the Dirichlet's domain, so report a trial the optimizer rejects
            # rather than a numerical failure or an input error
            return -np.inf, np.full_like(b, np.nan)
        big_s = float(b.sum())
        d = float(self.num_docs)
        value = (
            float(b @ s)
            - d * (float(np.sum(numerics.log_gamma(b))) - numerics.log_gamma(big_s))
            - 0.5 * float(theta @ theta)
        )
        grad = b * (s - d * (numerics.digamma(b) - numerics.digamma(big_s))) - theta
        return value, grad

    def _curvature(self, theta, stats: ExpectedStats):
        """f's Hessian as diag(h) + c b b', b = exp(theta), c = D psi'(sum b) (Minka 2000)."""
        theta = np.asarray(theta, dtype=float)
        s = stats.values
        b = _checked_exp(theta)
        big_s = float(b.sum())
        d = float(self.num_docs)
        psi = numerics.digamma(b) - numerics.digamma(big_s)
        h = b * s - d * b * psi - d * _b2_trigamma(b) - 1.0
        return h, d * numerics.trigamma(big_s), b

    def f_hessian(self, theta, stats: ExpectedStats) -> np.ndarray:
        h, c, b = self._curvature(theta, stats)
        return c * np.outer(b, b) + np.diag(h)

    def covariance(self, theta, stats: ExpectedStats, shift: float, diagonal: bool):
        """The contract's Sigma and log|Sigma| in O(V)."""
        h, c, b = self._curvature(theta, stats)
        if diagonal:  # diag(shift - h - c b^2) alone
            h, c = h + c * b * b, 0.0
        if (inverse := _shifted_inverse(h, c, b, shift)) is None:
            raise numerics.NotPositiveDefiniteError("negated Hessian not positive definite")
        return inverse

    def hessian_trace(self, theta, stats: ExpectedStats, sigma) -> float:
        """Tr{(diag(h) + c b b') sigma} = h' diag(sigma) + c b' sigma b."""
        h, c, b = self._curvature(theta, stats)
        return float(h @ sigma.diagonal()) + c * float(b @ (sigma @ b))

    def newton_direction(self, theta, stats, grad, sigma=None) -> np.ndarray:
        """Sherman-Morrison solve against f's -Hessian diag(-h) - c b b' in
        O(V); the delta profile steps on f's curvature too."""
        h, c, b = self._curvature(theta, stats)

        def solve(shift):
            inverse = _shifted_inverse(h, c, b, shift)
            return None if inverse is None else inverse[0] @ grad

        return optimize.shifted_solve(solve, -h - c * b * b)

    def trace_grad(self, theta, sigma, stats: ExpectedStats) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        s = stats.values
        b = _checked_exp(theta)
        big_s = float(b.sum())
        d = float(self.num_docs)
        sig_diag = sigma.diagonal()
        psi_s = numerics.digamma(big_s)
        tri_s = numerics.trigamma(big_s)
        pg2_s = numerics.polygamma_2(big_s)
        sigma_b = sigma @ b
        out = sig_diag * b * s
        out -= d * sig_diag * (
            b * numerics.digamma(b) + 3.0 * _b2_trigamma(b) + _b3_polygamma_2(b)
        )
        out += d * psi_s * sig_diag * b
        out += d * tri_s * b * float(sig_diag @ b)
        out += d * pg2_s * b * float(b @ sigma_b)
        out += 2.0 * d * tri_s * b * sigma_b
        return out

    def expected_stats(self, q_z: ConjugateVariational) -> ExpectedStats:
        phi = np.asarray(q_z.phi, dtype=float)
        if phi.size == 0:
            return ExpectedStats(np.zeros(self._vocab))
        per_doc = numerics.digamma(phi) - numerics.digamma(phi.sum(axis=1))[:, None]
        return ExpectedStats(per_doc.sum(axis=0))

    def eta_expectation(self, q_theta: GaussianVariational) -> np.ndarray:
        arg = q_theta.mu + 0.5 * q_theta.sigma.diagonal()
        return _checked_exp(arg)

    def conjugate_update(self, q_theta: GaussianVariational, data=None) -> ConjugateVariational:
        base = self.eta_expectation(q_theta)
        phi = base[None, :] + self._counts
        if np.any(phi <= 0.0):
            d, i = np.unravel_index(int(np.argmax(phi <= 0.0)), phi.shape)
            raise RateUnderflowError(
                f"conjugate update left nonpositive parameter (document {d}, term {i}): "
                f"exp(mu + sigma/2) underflowed to 0"
            )
        return ConjugateVariational(phi)

    def qz_entropy(self, q_z: ConjugateVariational) -> float:
        return float(np.sum(dirichlet_entropy(q_z.phi)))

    def qz_model_terms(self, q_z: ConjugateVariational) -> float:
        phi = np.asarray(q_z.phi, dtype=float)
        if phi.size == 0:
            return 0.0
        per_doc = numerics.digamma(phi) - numerics.digamma(phi.sum(axis=1))[:, None]
        return float(np.sum((self._counts - 1.0) * per_doc))


def infer(
    documents: list[Document],
    vocab_size: int,
    cfg: engine.InferenceConfig | None = None,
):
    """Fit q(theta) q(z) for a corpus, starting from q(theta) = N(0, I)."""
    model = UnigramModel(vocab_size, documents)
    eye = numerics.DiagPlusRankOne(np.ones(model.dim), 0.0, np.zeros(model.dim))
    q0 = GaussianVariational(np.zeros(model.dim), eye)
    qz0 = model.conjugate_update(q0)
    return engine.run_coordinate_ascent(model, None, q0, qz0, cfg)
