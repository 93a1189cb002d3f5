"""Bag-of-words model with a log-normal prior over Dirichlet parameters.

theta has a standard normal prior; each document draws a term distribution
z_d ~ Dirichlet(exp(theta)) and counts x_d ~ Multinomial(z_d).  The Dirichlet
natural-parameter map eta(theta) = exp(theta) keeps E[eta] available in
closed form, so both the curvature updates and the exact conjugate update
can be exercised end to end on this model.

f's Hessian is diag(h) + c b b' with b = exp(theta) (Minka, "Estimating a
Dirichlet distribution", 2000), so Newton directions, Sigma (held as a
numerics.DiagPlusRankOne), log|Sigma| and Tr{H Sigma} cost O(V): inference
forms no V x V matrix, and only the reference f_hessian is dense.  f, its
curvature and trace_grad read the terms that depend on theta alone (b, its
sum and the gamma family there) from one evaluation per theta, held for the
last theta, so a Newton step, its covariance and the monitor share them.

Every document's q(z_d) = Dirichlet(b + x_d) shares the rates b = E[exp(theta)]
and differs from them only where it has counts, so q(z) is held as b and the
corpus's nonzero counts (DirichletRows): its statistics, entropy and model
terms cost V + nnz + D gamma evaluations, not D V.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import engine, numerics, optimize
from .model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
    dirichlet_entropy,
    pack_corpus,
)

__all__ = ["UnigramModel", "DirichletRows", "RateUnderflowError", "infer"]

_EXP_GUARD = 700.0


class RateUnderflowError(ArithmeticError):
    """E[exp(theta_i)] underflowed to 0 for a term that a document never uses,
    leaving that document's Dirichlet parameter 0: a numerical failure."""


def _checked_exp(theta: np.ndarray) -> np.ndarray:
    if np.any(theta > _EXP_GUARD):
        i = int(np.argmax(theta > _EXP_GUARD))
        raise OverflowError(f"exp overflow in component {i} (theta={theta[i]:.3g})")
    return np.exp(theta)


def _expected_log_z(q_z: ConjugateVariational) -> np.ndarray:
    """E_q[log z_d] = psi(phi_d) - psi(sum phi_d), one row per document
    (none for an empty corpus), from a dense phi: the reference for
    DirichletRows."""
    phi = np.asarray(q_z.phi, dtype=float)
    return numerics.digamma(phi) - numerics.digamma(phi.sum(axis=1))[:, None]


class _Corpus:
    """A corpus's nonzero counts in row-major order, with the number of
    documents that leave each term at zero count and each document's length."""

    def __init__(self, vocab_size: int, documents: list[Document]):
        self.term, self.count, self.doc = pack_corpus(documents)
        if np.any(outside := self.term >= vocab_size):
            raise ValueError(
                f"term index {self.term[np.argmax(outside)]} outside vocabulary {vocab_size}")
        self.vocab_size, self.num_docs = vocab_size, len(documents)
        self.zeros = self.num_docs - np.bincount(self.term, minlength=vocab_size)
        self.lengths = np.bincount(self.doc, self.count, minlength=self.num_docs)

    def dense(self, base: np.ndarray) -> np.ndarray:
        """The (D, V) array base + x_d, one row per document."""
        out = np.repeat(base[None, :], self.num_docs, axis=0)
        out[self.doc, self.term] += self.count
        return out


class DirichletRows:
    """q(z_d) = Dirichlet(base + x_d) for every document d, held as the shared
    rates and the corpus's counts; np.asarray reads it as the dense phi.

    psi and ln Gamma run once per term at base_i, once per nonzero count at
    base_i + x_di and once per document at its row sum, on first use, and are
    shared by expected_stats, qz_entropy and qz_model_terms.  A term's
    zero-count entries enter as (D - n_i) g(base_i), n_i the documents using
    it: never as D g(base_i) less a correction, which cancels where base_i is
    tiny and psi(base_i) ~ -1/base_i.  A term every document uses weighs 0, so
    its placeholder rate 1 stands in for a base_i that may have underflowed.
    """

    def __init__(self, base: np.ndarray, corpus: _Corpus):
        self.base, self._corpus = base, corpus

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._corpus.dense(self.base), dtype=dtype)

    @cached_property
    def _points(self):
        c = self._corpus
        return (np.where(c.zeros > 0, self.base, 1.0), self.base[c.term] + c.count,
                float(self.base.sum()) + c.lengths)

    def _at_points(self, fn):
        v, nnz = self._corpus.vocab_size, self._corpus.count.size
        return np.split(fn(np.concatenate(self._points)), [v, v + nnz])

    @cached_property
    def _digamma(self):
        return self._at_points(numerics.digamma)

    @cached_property
    def _log_gamma(self):
        return self._at_points(numerics.log_gamma)

    def log_z_sums(self) -> np.ndarray:
        """sum_d E_q[log z_d], one entry per term: psi(base_i + x_di) - psi(S_d)
        per nonzero, as the dense reference takes it, and (D - n_i) psi(base_i)
        less the psi(S_d) of the documents that leave term i at zero, exactly
        0 for a term every document uses."""
        c, (psi_b, psi_x, psi_s) = self._corpus, self._digamma
        used = np.bincount(c.term, psi_s[c.doc], minlength=c.vocab_size)
        unused = np.where(c.zeros > 0, float(psi_s.sum()) - used, 0.0)
        return (np.bincount(c.term, psi_x - psi_s[c.doc], minlength=c.vocab_size)
                + (c.zeros * psi_b - unused))

    def entropy(self) -> float:
        """The sum of the documents' Dirichlet entropies."""
        c, (b, b_x, s) = self._corpus, self._points
        (psi_b, psi_x, psi_s), (lg_b, lg_x, lg_s) = self._digamma, self._log_gamma
        return (float(c.zeros @ (lg_b - (b - 1.0) * psi_b))
                + float(np.sum(lg_x - (b_x - 1.0) * psi_x))
                + float(np.sum((s - c.vocab_size) * psi_s - lg_s)))

    def model_terms(self) -> float:
        """sum_d sum_i (x_di - 1) E_q[log z_di]."""
        c, (psi_b, psi_x, psi_s) = self._corpus, self._digamma
        return (float((c.count - 1.0) @ psi_x) - float(c.zeros @ psi_b)
                - float((c.lengths - c.vocab_size) @ psi_s))


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
        self._corpus = _Corpus(self._vocab, documents)
        self._last = None

    @property
    def dim(self) -> int:
        return self._vocab

    @property
    def num_docs(self) -> int:
        return self._corpus.num_docs

    def _terms(self, theta):
        """f's terms that depend on theta alone, taken once per theta and held
        for the last one (keyed by a copy): b = exp(theta), S = sum b,
        sum ln Gamma(b) - ln Gamma(S), psi(b), psi(S), b^2 psi'(b) and psi'(S).
        b^2 psi'(b), like trace_grad's b^3 psi''(b), takes one step of
        psi'(b) = psi'(b+1) + 1/b^2 (psi''(b) = psi''(b+1) - 2/b^3): finite
        where b^k underflows to 0 while psi'(b) or psi''(b) overflows (tiny
        rates) and where b^k itself overflows (huge ones)."""
        if self._last is None or not np.array_equal(self._last[0], theta):
            b = _checked_exp(theta)
            big_s = float(b.sum())
            at_b = np.append(b, big_s)
            log_gamma, psi = numerics.log_gamma(at_b), numerics.digamma(at_b)
            tri = numerics.trigamma(np.append(b + 1.0, big_s))
            self._last = theta.copy(), (
                b, big_s, float(np.sum(log_gamma[:-1])) - float(log_gamma[-1]), psi[:-1],
                float(psi[-1]), 1.0 + b * (b * tri[:-1]), float(tri[-1]))
        return self._last[1]

    def f_value_grad(self, theta, stats: ExpectedStats):
        theta = np.asarray(theta, dtype=float)
        if np.any(theta > _EXP_GUARD) or not np.all(np.exp(theta) > 0.0):
            # exp(theta) past the overflow guard or underflowed to 0: outside
            # the Dirichlet's domain, so report a trial the optimizer rejects
            # rather than a numerical failure or an input error
            return -np.inf, np.full_like(theta, np.nan)
        b, _, log_norm, psi_b, psi_s, _, _ = self._terms(theta)
        s, d = stats.values, float(self.num_docs)
        value = float(b @ s) - d * log_norm - 0.5 * float(theta @ theta)
        return value, b * (s - d * (psi_b - psi_s)) - theta

    def _curvature(self, theta, stats: ExpectedStats):
        """f's Hessian as diag(h) + c b b', b = exp(theta), c = D psi'(sum b) (Minka 2000)."""
        b, _, _, psi_b, psi_s, b2_tri, tri_s = self._terms(np.asarray(theta, dtype=float))
        d = float(self.num_docs)
        h = b * stats.values - d * b * (psi_b - psi_s) - d * b2_tri - 1.0
        return h, d * tri_s, b

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
        b, big_s, _, psi_b, psi_s, b2_tri, tri_s = self._terms(np.asarray(theta, dtype=float))
        pg2 = numerics.polygamma_2(np.append(b + 1.0, big_s))
        d, sig_diag, sigma_b = float(self.num_docs), sigma.diagonal(), sigma @ b
        out = sig_diag * b * stats.values
        out -= d * sig_diag * (b * psi_b + 3.0 * b2_tri + (-2.0 + b * (b * (b * pg2[:-1]))))
        out += d * psi_s * sig_diag * b
        out += d * tri_s * b * float(sig_diag @ b)
        # psi''(S) b'Sigma b as (psi''(S) S)(b / S)'Sigma b: b'Sigma b alone
        # overflows once the rates pass 1e154, while the product stays finite
        out += d * (float(pg2[-1]) * big_s) * b * float((b / big_s) @ sigma_b)
        out += 2.0 * d * tri_s * b * sigma_b
        return out

    def expected_stats(self, q_z: ConjugateVariational) -> ExpectedStats:
        if isinstance(q_z.phi, DirichletRows):
            return ExpectedStats(q_z.phi.log_z_sums())
        return ExpectedStats(_expected_log_z(q_z).sum(axis=0))

    def eta_expectation(self, q_theta: GaussianVariational) -> np.ndarray:
        arg = q_theta.mu + 0.5 * q_theta.sigma.diagonal()
        return _checked_exp(arg)

    def conjugate_update(self, q_theta: GaussianVariational, data=None) -> ConjugateVariational:
        base = self.eta_expectation(q_theta)
        if np.any((base <= 0.0) & (self._corpus.zeros > 0)):
            d, i = np.argwhere(self._corpus.dense(base) <= 0.0)[0]
            raise RateUnderflowError(
                f"conjugate update left nonpositive parameter (document {d}, term {i}): "
                f"exp(mu + sigma/2) underflowed to 0"
            )
        return ConjugateVariational(DirichletRows(base, self._corpus))

    def qz_entropy(self, q_z: ConjugateVariational) -> float:
        if isinstance(q_z.phi, DirichletRows):
            return q_z.phi.entropy()
        return float(np.sum(dirichlet_entropy(q_z.phi)))

    def qz_model_terms(self, q_z: ConjugateVariational) -> float:
        if isinstance(q_z.phi, DirichletRows):
            return q_z.phi.model_terms()
        counts = self._corpus.dense(np.zeros(self._vocab))
        return float(np.sum((counts - 1.0) * _expected_log_z(q_z)))


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
