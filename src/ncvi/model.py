"""Model contract and shared containers for the mean-field pair q(theta) q(z).

A model bundles everything the generic engine needs: the nonconjugate
exponent f(theta) = eta(theta)' E[t(z)] - a(eta(theta)) + log p(theta) with
its first two derivatives, the covariance its curvature gives, the value and
gradient of theta -> Tr{H(theta) Sigma} for the curvature-corrected update,
the Newton direction both updates climb by, the expected sufficient
statistics of the conjugate factor, and the closed-form conjugate update.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import numerics, optimize

__all__ = [
    "Document",
    "pack_corpus",
    "LabeledInstance",
    "LabeledData",
    "GaussianVariational",
    "ConjugateVariational",
    "ExpectedStats",
    "ModelContract",
    "dirichlet_entropy",
]


@dataclass(frozen=True)
class Document:
    """Sparse bag of words: term index -> positive count."""

    counts: dict[int, int]

    def __post_init__(self):
        for idx, c in self.counts.items():
            if idx < 0 or c <= 0:
                raise ValueError(f"document has invalid entry {idx}:{c}")

    def total(self) -> int:
        return sum(self.counts.values())

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


def pack_corpus(docs: list[Document]):
    """Term ids and counts of every (document, term) pair in document order,
    and each pair's document.  Counts are floats: a count past the int64
    range is valid input."""
    items = [doc.items() for doc in docs]
    ids = np.array([i for pairs in items for i, _ in pairs], dtype=int)
    counts = np.array([c for pairs in items for _, c in pairs], dtype=float)
    return ids, counts, np.repeat(np.arange(len(docs)), [len(pairs) for pairs in items])


@dataclass(frozen=True)
class LabeledInstance:
    """Covariate vector plus a one-hot pair over {positive, negative}."""

    covariates: np.ndarray
    z: tuple[int, int]

    def __post_init__(self):
        if sorted(self.z) != [0, 1]:
            raise ValueError(f"label indicator must be one-hot, got {self.z}")

    @property
    def label(self) -> int:
        return self.z[0]


class LabeledData(Sequence):
    """Labeled instances stored as arrays: covariates (N, P) and labels (N,),
    1.0 for positive and 0.0 for negative.  Each item is a LabeledInstance
    view of one row."""

    def __init__(self, covariates, labels):
        self.covariates = np.asarray(covariates, dtype=float)
        self.labels = np.asarray(labels, dtype=float)

    @classmethod
    def of(cls, instances) -> "LabeledData":
        """Nonempty labeled instances as arrays: LabeledData itself, or a
        sequence of instances stacked."""
        if not len(instances):
            raise ValueError("need at least one labeled instance")
        if isinstance(instances, cls):
            return instances
        shape = np.shape(instances[0].covariates)
        if len(shape) != 1 or any(np.shape(inst.covariates) != shape for inst in instances):
            raise ValueError("instances have inconsistent covariate dimensions")
        return cls([inst.covariates for inst in instances], [inst.label for inst in instances])

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return LabeledData(self.covariates[n], self.labels[n])
        label = int(self.labels[n])
        return LabeledInstance(self.covariates[n], (label, 1 - label))


@dataclass
class GaussianVariational:
    """q(theta) = N(mu, sigma).  sigma is a dense matrix, or any covariance
    read through `.diagonal()` and `@` (unigram's numerics.DiagPlusRankOne)."""

    mu: np.ndarray
    sigma: np.ndarray

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass
class ConjugateVariational:
    """Natural parameters of q(z); layout is model specific."""

    phi: Any


@dataclass(frozen=True)
class ExpectedStats:
    """E_q(z)[t(z)] flattened to one vector."""

    values: np.ndarray


def dirichlet_entropy(alpha: np.ndarray):
    """Entropy of Dirichlet(alpha) per row of the last axis; a float for one vector."""
    alpha = np.asarray(alpha, dtype=float)
    a0 = alpha.sum(axis=-1)
    log_norm = np.sum(numerics.log_gamma(alpha), axis=-1) - numerics.log_gamma(a0)
    psi_term = np.sum((alpha - 1.0) * numerics.digamma(alpha), axis=-1)
    out = log_norm + (a0 - alpha.shape[-1]) * numerics.digamma(a0) - psi_term
    return float(out) if np.ndim(out) == 0 else out


class ModelContract(abc.ABC):
    """Operations the coordinate-ascent engine requires of a model.

    Its results depend only on its construction and the arguments, so one
    model serves every update of its problem; a model may keep its last
    point's terms to share them between calls at that point.
    `delta_diagonal` marks models whose curvature-corrected path restricts
    the covariance to a diagonal.  The engine reads f's curvature only
    through covariance, hessian_trace and newton_direction, whose dense
    defaults from f_hessian are the reference a structured override matches.
    """

    delta_diagonal: bool = False

    @property
    @abc.abstractmethod
    def dim(self) -> int:
        """Dimension of theta."""

    @abc.abstractmethod
    def f_value_grad(self, theta: np.ndarray, stats: ExpectedStats):
        """Return (f(theta), grad f(theta)) for fixed expected statistics."""

    @abc.abstractmethod
    def f_hessian(self, theta: np.ndarray, stats: ExpectedStats) -> np.ndarray:
        """Return the Hessian of f at theta."""

    @abc.abstractmethod
    def trace_grad(self, theta: np.ndarray, sigma: np.ndarray, stats: ExpectedStats) -> np.ndarray:
        """Gradient of theta -> Tr{Hessian_f(theta) sigma} at fixed sigma."""

    def covariance(self, theta, stats: ExpectedStats, shift: float, diagonal: bool):
        """Sigma = (-Hessian_f + shift I)^{-1}, or the inverse of that matrix's
        diagonal, and log|Sigma| from one factor of it; NotPositiveDefiniteError
        where it is not positive definite.  Default: dense Cholesky."""
        neg = -np.asarray(self.f_hessian(theta, stats), dtype=float)
        neg = np.diag(np.diag(neg)) if diagonal else 0.5 * (neg + neg.T)
        fact = numerics.spd_factorize(neg + shift * np.eye(len(neg)) if shift else neg)
        return fact.inverse(), -fact.log_det

    def hessian_trace(self, theta, stats: ExpectedStats, sigma) -> float:
        """Tr{Hessian_f(theta) sigma}, the value whose gradient is trace_grad."""
        return float(np.sum(self.f_hessian(theta, stats) * sigma))

    def newton_direction(self, theta, stats: ExpectedStats, grad, sigma=None) -> np.ndarray:
        """Solve of a positive definite Newton matrix against `grad` for f or,
        given sigma = Sigma(theta) from covariance at the ascent's shift, for
        the delta profile g = f + (log|Sigma(theta)| - dim)/2.  Default: f's
        negated Hessian for both, by optimize.dense_direction; unigram keeps
        it, BLR adds the curvature of Tr{H sigma}/2 at fixed sigma, and CTM
        uses -Hessian g itself."""
        return optimize.dense_direction(-self.f_hessian(theta, stats), grad)

    @abc.abstractmethod
    def expected_stats(self, q_z: ConjugateVariational) -> ExpectedStats:
        """E[t(z)] under the conjugate factor."""

    @abc.abstractmethod
    def conjugate_update(self, q_theta: GaussianVariational, data) -> ConjugateVariational:
        """Exact coordinate update of q(z) given q(theta) and the data."""

    def qz_entropy(self, q_z: ConjugateVariational) -> float:
        """Entropy of q(z); zero when z is observed."""
        return 0.0

    def qz_model_terms(self, q_z: ConjugateVariational) -> float:
        """E_q(z) of the log-joint terms that f omits (observation likelihood
        and carrier), up to additive constants.  Zero when z is observed."""
        return 0.0
