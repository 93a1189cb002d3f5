"""Model contract and shared containers for the mean-field pair q(theta) q(z).

A model bundles everything the generic engine needs: the nonconjugate
exponent f(theta) = eta(theta)' E[t(z)] - a(eta(theta)) + log p(theta) with
its first two derivatives, the gradient of theta -> Tr{H(theta) Sigma} for
the curvature-corrected update, the expected sufficient statistics of the
conjugate factor, and the closed-form conjugate update.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import numerics

__all__ = [
    "Document",
    "LabeledInstance",
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

    def dense(self, vocab_size: int) -> np.ndarray:
        x = np.zeros(vocab_size, dtype=float)
        for idx, c in self.counts.items():
            if idx >= vocab_size:
                raise ValueError(f"term index {idx} outside vocabulary {vocab_size}")
            x[idx] = float(c)
        return x


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


@dataclass
class GaussianVariational:
    """q(theta) = N(mu, sigma)."""

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


def dirichlet_entropy(alpha: np.ndarray) -> float:
    """Entropy of Dirichlet(alpha)."""
    alpha = np.asarray(alpha, dtype=float)
    a0 = float(alpha.sum())
    k = alpha.size
    log_norm = float(np.sum(numerics.log_gamma(alpha))) - numerics.log_gamma(a0)
    return (
        log_norm
        + (a0 - k) * numerics.digamma(a0)
        - float(np.sum((alpha - 1.0) * numerics.digamma(alpha)))
    )


class ModelContract(abc.ABC):
    """Operations the coordinate-ascent engine requires of a model.

    Immutable after construction so inference can run concurrently across
    problems.  `delta_diagonal` marks models whose curvature-corrected path
    restricts the covariance to a diagonal.
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
