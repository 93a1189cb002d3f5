"""Correlated topic model: per-document inference and variational EM.

Topic proportions are softmax(theta) with theta ~ N(prior_mean, prior_cov),
so eta(theta) = theta - log sum_k exp(theta_k) and the log normalizer of the
assignment family vanishes.  The curvature-corrected update restricts the
per-document covariance to a diagonal.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import engine, numerics
from .model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
)

__all__ = [
    "CtmParams",
    "CtmDocModel",
    "CtmDocState",
    "CtmFit",
    "infer_doc",
    "em_fit",
    "predictive_distribution",
]

_BETA_SMOOTH = 1e-8
_COV_RIDGE = 1e-6


@dataclass(frozen=True)
class CtmParams:
    """Topic matrix (K x V, rows on the simplex) and logistic-normal prior,
    whose covariance is factorized once here for every document problem."""

    topics: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    prior_inv: np.ndarray = field(init=False, repr=False, compare=False)
    prior_log_det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        topics = np.asarray(self.topics, dtype=float)
        mean = np.asarray(self.prior_mean, dtype=float)
        cov = np.asarray(self.prior_cov, dtype=float)
        if topics.ndim != 2:
            raise ValueError("topics must be a K x V matrix")
        k = topics.shape[0]
        if k < 1 or topics.shape[1] < 2:
            raise ValueError("need at least 1 topic and 2 terms")
        if np.any(topics < 0.0) or not np.all(np.isfinite(topics)):
            raise ValueError("topic entries must be finite and nonnegative")
        rows = topics.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-8):
            bad = int(np.argmax(np.abs(rows - 1.0)))
            raise ValueError(f"topic row {bad} sums to {rows[bad]!r}, not 1")
        if mean.shape != (k,) or cov.shape != (k, k):
            raise ValueError("prior dimensions must match the number of topics")
        fact = numerics._factorize_input(cov, "prior covariance")
        object.__setattr__(self, "topics", topics)
        object.__setattr__(self, "prior_mean", mean)
        object.__setattr__(self, "prior_cov", cov)
        object.__setattr__(self, "prior_inv", fact.inverse())
        object.__setattr__(self, "prior_log_det", fact.log_det)

    @property
    def num_topics(self) -> int:
        return self.topics.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.topics.shape[1]


@dataclass
class CtmDocState:
    """Converged variational state for one document."""

    q_theta: GaussianVariational
    phi: np.ndarray  # (num unique terms, K)
    term_ids: np.ndarray
    term_counts: np.ndarray
    objective: float  # final per-document approximate objective


class CtmDocModel(ModelContract):
    delta_diagonal = True

    def __init__(self, params: CtmParams, doc: Document):
        self._params = params
        items = doc.items()
        self._term_ids = np.array([i for i, _ in items], dtype=int)
        self._term_counts = np.array([c for _, c in items], dtype=float)
        if np.any(self._term_ids >= params.vocab_size):
            raise ValueError("document term outside the topic vocabulary")
        cols = params.topics[:, self._term_ids]  # (K, U)
        if cols.size and np.any(cols.max(axis=0) <= 0.0):
            bad = int(self._term_ids[np.argmax(cols.max(axis=0) <= 0.0)])
            raise ValueError(f"term {bad} has zero probability under every topic")
        with np.errstate(divide="ignore"):
            self._log_beta = np.log(cols)
        self._prior_inv = params.prior_inv

    @property
    def dim(self) -> int:
        return self._params.num_topics

    @property
    def term_ids(self) -> np.ndarray:
        return self._term_ids

    @property
    def term_counts(self) -> np.ndarray:
        return self._term_counts

    def f_value_grad(self, theta, stats: ExpectedStats):
        theta = np.asarray(theta, dtype=float)
        s = stats.values
        n = float(s.sum())
        eta = theta - numerics.log_sum_exp(theta)
        diff = theta - self._params.prior_mean
        prior_pull = self._prior_inv @ diff
        value = float(eta @ s) - 0.5 * float(diff @ prior_pull)
        pi = np.exp(eta)
        grad = s - pi * n - prior_pull
        return value, grad

    def f_hessian(self, theta, stats: ExpectedStats) -> np.ndarray:
        s = stats.values
        n = float(s.sum())
        pi = numerics.softmax(np.asarray(theta, dtype=float))
        hess = n * (np.outer(pi, pi) - np.diag(pi)) - self._prior_inv
        return hess

    def trace_grad(self, theta, sigma, stats: ExpectedStats) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        sig_diag = np.diag(sigma).copy()
        if np.any(np.abs(sigma - np.diag(sig_diag)) > 1e-12):
            raise ValueError("curvature-corrected path requires a diagonal covariance")
        s = stats.values
        n = float(s.sum())
        pi = numerics.softmax(np.asarray(theta, dtype=float))
        weighted = pi * (2.0 * pi - 1.0) * sig_diag
        return n * pi * ((2.0 * pi - 1.0) * sig_diag - float(weighted.sum()))

    def expected_stats(self, q_z: ConjugateVariational) -> ExpectedStats:
        phi = np.asarray(q_z.phi, dtype=float)
        if phi.size == 0:
            return ExpectedStats(np.zeros(self.dim))
        return ExpectedStats(phi.T @ self._term_counts)

    def conjugate_update(self, q_theta: GaussianVariational, data=None) -> ConjugateVariational:
        # phi_wk proportional to beta_kw exp(mu_k).  log sum_j exp(mu_j) and
        # the second-order correction of E[eta_k], whose Hessian
        # -(diag pi - pi pi') is the same for every k, shift all topics alike
        # and cancel in the normalization over topics.
        return ConjugateVariational(
            numerics.softmax(q_theta.mu[None, :] + self._log_beta.T, axis=1)
        )

    def qz_entropy(self, q_z: ConjugateVariational) -> float:
        phi = np.asarray(q_z.phi, dtype=float)
        if phi.size == 0:
            return 0.0
        safe = np.where(phi > 0.0, phi, 1.0)
        per_term = -np.sum(phi * np.log(safe), axis=1)
        return float(self._term_counts @ per_term)

    def qz_model_terms(self, q_z: ConjugateVariational) -> float:
        phi = np.asarray(q_z.phi, dtype=float)
        if phi.size == 0:
            return 0.0
        contrib = np.where(phi > 0.0, phi * self._log_beta.T, 0.0)
        return float(self._term_counts @ contrib.sum(axis=1))


def infer_doc(
    params: CtmParams,
    doc: Document,
    cfg: engine.InferenceConfig | None = None,
    diag=None,
) -> tuple[CtmDocState, engine.InferenceTrace]:
    """Variational inference for one document.

    Starts from mean zero with unit covariance and an assignment update
    computed from that start.  An empty document short-circuits to the prior:
    the exponent is the prior density alone, whose curvature fit is exact.
    """
    cfg = cfg or engine.InferenceConfig()
    model = CtmDocModel(params, doc)
    k = model.dim
    if model.term_ids.size == 0:
        trace = engine.InferenceTrace()
        trace.converged = True
        q = GaussianVariational(
            params.prior_mean.copy(), np.asarray(params.prior_cov, dtype=float).copy()
        )
        state = CtmDocState(q, np.zeros((0, k)), model.term_ids, model.term_counts, 0.0)
        return state, trace
    q0 = GaussianVariational(np.zeros(k), np.eye(k))
    qz0 = model.conjugate_update(q0)
    q_theta, q_z, trace = engine.run_coordinate_ascent(
        model, None, q0, qz0, cfg, diag
    )
    objective = trace.records[-1].objective if trace.records else 0.0
    state = CtmDocState(
        q_theta, np.asarray(q_z.phi, dtype=float), model.term_ids, model.term_counts, objective
    )
    return state, trace


def predictive_distribution(params: CtmParams, q_theta: GaussianVariational) -> np.ndarray:
    """p(w | fitted q): topic mixture at softmax of the variational mean."""
    pi = numerics.softmax(q_theta.mu)
    return pi @ params.topics


@dataclass
class CtmFit:
    params: CtmParams
    trace: engine.InferenceTrace
    bounds: list[float] = field(default_factory=list)
    word_count: int = 0
    doc_states: list[CtmDocState] = field(default_factory=list)


def _doc_bound(state: CtmDocState, params: CtmParams) -> float:
    # Completes the per-document monitor into a data-bound contribution:
    # adds the prior and entropy constants the monitor drops.  An empty
    # document contributes zero.
    if state.term_ids.size == 0:
        return 0.0
    return state.objective - 0.5 * params.prior_log_det + 0.5 * state.q_theta.dim


def em_fit(
    documents: list[Document],
    vocab_size: int,
    num_topics: int,
    cfg: engine.InferenceConfig | None = None,
    em_iters: int = 20,
    seed: int = 0,
    threads: int = 1,
) -> CtmFit:
    """Variational EM: per-document inference, then topic and prior refits.

    Topics are seeded from symmetric Dirichlet draws.  The reported objective
    per EM iteration is the approximate data bound summed over documents.
    """
    if not documents:
        raise ValueError("cannot fit a topic model to an empty corpus")
    used_terms = set()
    for doc in documents:
        used_terms.update(doc.counts.keys())
    if num_topics < 1:
        raise ValueError("need at least 1 topic")
    if num_topics > len(used_terms):
        raise ValueError(
            f"{num_topics} topics exceed the {len(used_terms)} distinct terms in use"
        )
    if em_iters < 1:
        raise ValueError("em_iters must be at least 1")
    cfg = cfg or engine.InferenceConfig()

    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.ones(vocab_size), size=num_topics)
    topics = np.maximum(topics, _BETA_SMOOTH)
    topics /= topics.sum(axis=1, keepdims=True)
    params = CtmParams(topics, np.zeros(num_topics), np.eye(num_topics))

    fit = CtmFit(
        params=params,
        trace=engine.InferenceTrace(),
        word_count=int(sum(doc.total() for doc in documents)),
    )
    start = time.perf_counter()

    for it in range(1, em_iters + 1):
        def infer(doc):
            return infer_doc(params, doc, cfg)[0]

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                states = list(pool.map(infer, documents))
        else:
            states = [infer(doc) for doc in documents]

        bound = sum(_doc_bound(state, params) for state in states)

        beta_acc = np.zeros((num_topics, vocab_size))
        means = np.zeros((len(documents), num_topics))
        cov_acc = np.zeros((num_topics, num_topics))
        for d, state in enumerate(states):
            means[d] = state.q_theta.mu
            if state.phi.size:
                beta_acc[:, state.term_ids] += (state.phi * state.term_counts[:, None]).T
        new_mu0 = means.mean(axis=0)
        for d, state in enumerate(states):
            dev = means[d] - new_mu0
            cov_acc += state.q_theta.sigma + np.outer(dev, dev)
        new_sigma0 = cov_acc / len(documents) + _COV_RIDGE * np.eye(num_topics)

        topics = beta_acc + _BETA_SMOOTH
        topics /= topics.sum(axis=1, keepdims=True)
        mean_change = float(np.linalg.norm(new_mu0 - params.prior_mean))
        params = CtmParams(topics, new_mu0, new_sigma0)

        fit.bounds.append(bound)
        fit.trace.append(
            engine.TraceRecord(it, bound, mean_change, time.perf_counter() - start)
        )
        fit.doc_states = states

    fit.params = params
    return fit
