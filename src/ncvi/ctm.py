"""Correlated topic model: per-document inference and variational EM.

Topic proportions are softmax(theta) with theta ~ N(prior_mean, prior_cov),
so eta(theta) = theta - log sum_k exp(theta_k) and the log normalizer of the
assignment family vanishes.  The curvature-corrected update restricts the
per-document covariance to a diagonal.

The model maths is written once over a leading document axis, on a corpus
packed once (`model.pack_corpus`) into one column per (document, term) pair
of C-ordered (K, terms) arrays.  `_Docs` gives those documents to the engine
as its rows, one per document, on the exact K x K Hessian, so `infer_docs`
and `em_fit`'s E-step (whose M-step reads the stacked fit) run the engine's
one refit and outer loop on every document at once.  `CtmDocModel`, the
one-document view, runs on the engine's one-model adapter with the same
Newton matrices as the reference path.  The delta ascent steps by
optimize.dense_direction, the Laplace one by an LU solve of f's -H, which
is positive definite by construction.  Sums over terms use np.bincount
(term order), products with the prior precision np.einsum, not BLAS, and
the Laplace Sigma a stacked numerics.spd_factorize, so a document's result
is bitwise independent of the rest of its batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import engine, numerics, optimize
from .model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
    pack_corpus,
)

__all__ = [
    "CtmParams",
    "CtmDocModel",
    "CtmDocState",
    "CtmFit",
    "infer_doc",
    "infer_docs",
    "em_fit",
    "predictive_distribution",
]

_BETA_SMOOTH = 1e-8
_COV_RIDGE = 1e-6
# longest delta-profile Newton step in any logit: 40 takes a proportion past
# rounding (exp(-37)); under a wide prior the profile's own step is far longer
_MAX_STEP = 40.0


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
        if not np.all(np.isfinite(mean)):
            raise ValueError("prior mean entries must be finite")
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
    objective: float  # final per-document approximate objective


# Batched model maths: theta, stats and pi are (D, K), one document per row;
# per-term arrays (phi and log_beta (K, terms), counts (terms,)) have one
# column per (document, term) pair, and `doc` maps each column to its
# document.  Gathers along the term axis use np.take, which keeps C order.


def _value_grad(theta, stats, params: CtmParams):
    """f per document with its gradient and the proportions pi = softmax(theta)."""
    eta = theta - numerics.log_sum_exp(theta, axis=1)[:, None]
    diff = theta - params.prior_mean
    pull = np.einsum("dk,kj->dj", diff, params.prior_inv)
    value = np.einsum("dk,dk->d", eta, stats) - 0.5 * np.einsum("dk,dk->d", diff, pull)
    pi = np.exp(eta)
    return value, stats - pi * stats.sum(axis=1, keepdims=True) - pull, pi


def _centered(pi):
    """e_i - pi as row i per document, (D, K, K), which the functions below
    take as `e` or form: pi's Jacobian is pi_i (e_i - pi)'.  Its diagonal
    sums the other proportions: exact where pi_i rounds to 1."""
    k = pi.shape[1]
    out = np.eye(k) - pi[:, None, :]
    out.reshape(len(pi), -1)[:, ::k + 1] = np.einsum("dj,jk->dk", pi, 1.0 - np.eye(k))
    return out


def _hessian(pi, stats, params: CtmParams, e=None):
    """Hessian of f per document: -n (diag pi - pi pi') - prior precision."""
    e = _centered(pi) if e is None else e
    n = stats.sum(axis=1)[:, None, None]
    return -n * (pi[:, :, None] * e) - params.prior_inv


def _trace_grad(pi, stats, sig, e=None):
    """Gradient of theta -> Tr{Hessian f(theta) diag(sig)} per document:
    n sum_i sig_i (2 pi_i - 1) pi_i (e_i - pi)."""
    e = _centered(pi) if e is None else e
    n = stats.sum(axis=1, keepdims=True)
    return n * np.einsum("di,dij->dj", sig * (2.0 * pi - 1.0) * pi, e)


def _trace_hessian(pi, stats, sig, e=None):
    """Hessian of theta -> Tr{Hessian f(theta) diag(sig)} per document:
    -n sum_i sig_i pi_i [(1 - 4 pi_i) (e_i - pi)(e_i - pi)' - (1 - 2 pi_i) J],
    J = diag pi - pi pi'.  Each term stays small where sig_i is huge."""
    e = _centered(pi) if e is None else e
    n = stats.sum(axis=1)[:, None, None]
    outer = np.einsum("di,dij,dik->djk", sig * (1.0 - 4.0 * pi) * pi, e, e)
    lift = np.sum(sig * (1.0 - 2.0 * pi) * pi, axis=1)[:, None, None]
    # exactly symmetric, as (pi_i e_ij) is: J_ij = -pi_i pi_j off the diagonal
    return -n * (0.5 * (outer + outer.transpose(0, 2, 1)) - lift * (pi[:, :, None] * e))


def _profile_neg_hessian(pi, stats, sig, neg_hess, e=None):
    """-Hessian of the delta profile per document at Sigma(theta) = diag(sig),
    sig_i = 1/(shift - h_ii), given f's: the fixed-Sigma matrix minus
    sum_i sig_i^2 grad h_ii grad h_ii'/2, grad h_ii = n (2 pi_i - 1) pi_i (e_i - pi)."""
    e = _centered(pi) if e is None else e
    n = stats.sum(axis=1)[:, None, None]
    # sig_i grad h_ii, each entry at most 1 in size: sig^2 alone overflows
    # where -h_ii + shift < 1e-154, as pi saturates under a wide prior
    scaled = n * (sig * (2.0 * pi - 1.0) * pi)[:, :, None] * e
    moved = np.einsum("dij,dik->djk", scaled, scaled)
    return neg_hess - 0.5 * (_trace_hessian(pi, stats, sig, e) + moved)


def _bounded(direction):
    """Each row of `direction` scaled down to at most _MAX_STEP in any entry."""
    size = np.max(np.abs(direction), axis=1, keepdims=True)
    return direction * (_MAX_STEP / np.maximum(size, _MAX_STEP))


def _assignments(mu, doc, log_beta):
    # phi_kw proportional to beta_kw exp(mu_k).  log sum_j exp(mu_j) and the
    # second-order correction of E[eta_k], whose Hessian -(diag pi - pi pi')
    # is the same for every k, shift all topics alike and cancel in the
    # normalization over topics.
    return numerics.softmax(np.take(mu.T, doc, axis=1) + log_beta, axis=0)


def _sum_index(doc, num_bins, width):
    """The np.bincount index of `_doc_sums` for up to `width` rows: column j
    of row r adds into bin r * num_bins + doc[j]."""
    return (np.arange(width)[:, None] * num_bins + doc).ravel()


def _doc_sums(rows, index, num_bins):
    """Per-bin sums, in column order, of each row of a C-ordered (width,
    terms) array, as (width, num_bins)."""
    width = rows.shape[0]
    return np.bincount(index[:rows.size], rows.ravel(), width * num_bins).reshape(width, num_bins)


def _log_beta(params: CtmParams, ids):
    """Log topic columns of the given terms, (K, terms)."""
    if np.any(ids >= params.vocab_size):
        raise ValueError("document term outside the topic vocabulary")
    cols = np.take(params.topics, ids, axis=1)
    if cols.size and np.any(cols.max(axis=0) <= 0.0):
        bad = int(ids[np.argmax(cols.max(axis=0) <= 0.0)])
        raise ValueError(f"term {bad} has zero probability under every topic")
    with np.errstate(divide="ignore"):
        return np.log(cols)


class CtmDocModel(ModelContract):
    """One document's problem for the generic engine: the one-document view
    of the batched maths that `infer_docs` runs."""

    delta_diagonal = True

    def __init__(self, params: CtmParams, doc: Document):
        self._params = params
        ids, counts, doc = pack_corpus([doc])
        self._rows = _Docs(params, counts, _log_beta(params, ids), doc, 1)

    @property
    def dim(self) -> int:
        return self._params.num_topics

    def _pi(self, theta):
        return numerics.softmax(np.asarray(theta, dtype=float)[None, :], axis=1)

    def f_value_grad(self, theta, stats: ExpectedStats):
        theta = np.asarray(theta, dtype=float)[None, :]
        value, grad, _ = _value_grad(theta, stats.values[None, :], self._params)
        return float(value[0]), grad[0]

    def f_hessian(self, theta, stats: ExpectedStats) -> np.ndarray:
        return _hessian(self._pi(theta), stats.values[None, :], self._params)[0]

    def trace_grad(self, theta, sigma, stats: ExpectedStats) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=float)
        sig_diag = np.diag(sigma).copy()
        if np.any(np.abs(sigma - np.diag(sig_diag)) > 1e-12):
            raise ValueError("curvature-corrected path requires a diagonal covariance")
        return _trace_grad(self._pi(theta), stats.values[None, :], sig_diag[None, :])[0]

    def newton_direction(self, theta, stats: ExpectedStats, grad, sigma=None) -> np.ndarray:
        """For the delta profile, its exact -Hessian where positive definite,
        the step bounded to _MAX_STEP."""
        pi, s = self._pi(theta), stats.values[None, :]
        neg = -_hessian(pi, s, self._params)
        exact = neg if sigma is None else _profile_neg_hessian(pi, s, np.diag(sigma)[None, :], neg)
        direction = optimize.dense_direction(exact, neg, np.asarray(grad, dtype=float)[None])
        return (direction if sigma is None else _bounded(direction))[0]

    def _phi(self, q_z: ConjugateVariational) -> np.ndarray:  # public phi is (terms, K)
        return np.ascontiguousarray(np.asarray(q_z.phi, dtype=float).reshape(-1, self.dim).T)

    def expected_stats(self, q_z: ConjugateVariational) -> ExpectedStats:
        return ExpectedStats(self._rows.expected_stats(self._phi(q_z))[0])

    def conjugate_update(self, q_theta: GaussianVariational, data=None) -> ConjugateVariational:
        return ConjugateVariational(self._rows.conjugate_update(q_theta.mu[None, :], None).T)

    def _qz_terms(self, q_z: ConjugateVariational) -> np.ndarray:
        return self._rows._qz_terms(self._phi(q_z))[:, 0]

    def qz_entropy(self, q_z: ConjugateVariational) -> float:
        return float(self._qz_terms(q_z)[0])

    def qz_model_terms(self, q_z: ConjugateVariational) -> float:
        return float(self._qz_terms(q_z)[1])


class _Docs:
    """The documents of a packed corpus as the engine's rows, one row per
    document: the batched maths above, on the exact K x K Hessian."""

    def __init__(self, params: CtmParams, counts, log_beta, doc, num_docs):
        self.params, self.counts, self.log_beta = params, counts, log_beta
        self.doc, self.num_docs = doc, num_docs

    @cached_property
    def _index(self):
        # wide enough for phi's K rows and _qz_terms' two
        return _sum_index(self.doc, self.num_docs, max(self.params.num_topics, 2))

    def select(self, keep):
        """The documents `keep` (ascending), renumbered from 0."""
        kept = np.zeros(self.num_docs, dtype=bool)
        kept[keep] = True
        cols = np.flatnonzero(kept[self.doc])
        doc = np.searchsorted(keep, self.doc[cols])
        log_beta = np.take(self.log_beta, cols, axis=1)
        return _Docs(self.params, self.counts[cols], log_beta, doc, keep.size)

    def ascent(self, stats, shift=None):
        """f per document or, given a shift, the delta profile at the diagonal
        Sigma(theta) = diag(shift - h_ii)^{-1} (-h_ii >= (Sigma0^{-1})_ii > 0),
        then Sigma and log|Sigma|.  The profile steps by optimize.dense_direction
        on its exact -Hessian (the trace term's curvature dominates along weak
        prior directions) and f's.  f's own -H = n (diag pi - pi pi') +
        Sigma0^{-1} is positive definite by construction, so f steps by LU:
        about 20 us against a Cholesky solve's 55 on a mean fit-ctm batch."""

        def evaluate(theta, rows):
            s = stats[rows]
            value, grad, pi = _value_grad(theta, s, self.params)
            e = _centered(pi)
            neg = -_hessian(pi, s, self.params, e)
            if shift is None:
                return value, grad, np.linalg.solve(neg, grad[:, :, None])[:, :, 0]
            sig = 1.0 / (np.diagonal(neg, axis1=1, axis2=2) + shift)
            log_det = np.sum(np.log(sig), axis=1)
            value = value + 0.5 * (log_det - theta.shape[1])
            grad = grad + 0.5 * _trace_grad(pi, s, sig, e)
            exact = _profile_neg_hessian(pi, s, sig, neg, e)
            direction = _bounded(optimize.dense_direction(exact, neg, grad))
            return value, grad, direction, sig[:, :, None] * np.eye(theta.shape[1]), log_det

        return evaluate

    def covariance(self, theta, stats, shift):
        """Sigma = (-H + shift I)^{-1} and log|Sigma| per document from
        numerics' stacked Cholesky factor at pi = softmax(theta)."""
        neg = -_hessian(numerics.softmax(theta, axis=1), stats, self.params)
        fact = numerics.spd_factorize(neg + shift * np.eye(theta.shape[1]) if shift else neg)
        return fact.inverse(), -fact.log_det

    def conjugate_update(self, mu, sigma):
        return _assignments(mu, self.doc, self.log_beta)

    def expected_stats(self, phi):
        # (documents, K) in C order, like every array the engine passes back
        return np.ascontiguousarray(_doc_sums(self.counts * phi, self._index, self.num_docs).T)

    def _qz_terms(self, phi):
        """Per document: the entropy of q(z) and E_q(z)[log p(w | z)], as rows."""
        entropy = -np.sum(phi * np.log(np.where(phi > 0.0, phi, 1.0)), axis=0)
        model = np.sum(np.where(phi > 0.0, phi * self.log_beta, 0.0), axis=0)
        return _doc_sums(self.counts * np.stack([entropy, model]), self._index, self.num_docs)

    def monitor(self, mu, sigma, phi, stats, log_det):
        value, _, pi = _value_grad(mu, stats, self.params)
        curvature = np.einsum("dij,dij->d", _hessian(pi, stats, self.params), sigma)
        entropy, model = self._qz_terms(phi)
        return value + 0.5 * (curvature + log_det) + entropy + model


def _fit(params, ids, counts, doc, num_docs, cfg):
    """Every document of a packed corpus on the engine at once, from mean zero
    with unit covariance and an assignment update computed from that start.
    An empty document stays at the prior, with objective 0 and a converged
    empty trace: its exponent is the prior density alone, whose curvature
    fit is exact.  Returns stacked mu, Sigma, objective and phi, and traces."""
    log_beta = _log_beta(params, ids)
    mu = np.tile(params.prior_mean, (num_docs, 1))
    sigma = np.tile(params.prior_cov, (num_docs, 1, 1))
    objective = np.zeros(num_docs)
    traces = [engine.InferenceTrace() for _ in range(num_docs)]
    live = np.flatnonzero(np.bincount(doc, minlength=num_docs))
    for trace in traces:
        trace.converged = True  # kept by an empty document; the engine sets the others'
    if live.size:
        rows = _Docs(params, counts, log_beta, doc, num_docs).select(live)
        start = np.zeros((live.size, params.num_topics))
        stats = rows.expected_stats(rows.conjugate_update(start, None))
        fit = engine._ascend(rows, start, stats, cfg, [traces[d] for d in live])
        mu[live], sigma[live], objective[live] = fit
    return mu, sigma, objective, _assignments(mu, doc, log_beta), traces


def _doc_states(mu, sigma, objective, phi, doc) -> list[CtmDocState]:
    """Split a stacked fit into one state per document, phi (terms, K)."""
    splits = np.cumsum(np.bincount(doc, minlength=len(mu)))[:-1]
    return [CtmDocState(GaussianVariational(m, s), p, float(o))
            for m, s, o, p in zip(mu, sigma, objective, np.split(phi.T, splits))]


def infer_docs(
    params: CtmParams,
    docs: list[Document],
    cfg: engine.InferenceConfig | None = None,
) -> list[tuple[CtmDocState, engine.InferenceTrace]]:
    """Variational inference for every document at once.

    Each document starts from mean zero with unit covariance and an
    assignment update computed from that start, and stops on its own
    mean-change test, so its result does not depend on the other documents.
    An empty document returns the prior.
    """
    ids, counts, doc = pack_corpus(docs)
    *fit, traces = _fit(params, ids, counts, doc, len(docs), cfg or engine.InferenceConfig())
    return list(zip(_doc_states(*fit, doc), traces))


def infer_doc(
    params: CtmParams,
    doc: Document,
    cfg: engine.InferenceConfig | None = None,
) -> tuple[CtmDocState, engine.InferenceTrace]:
    """Variational inference for one document: `infer_docs` on a batch of one."""
    return infer_docs(params, [doc], cfg)[0]


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


def em_fit(
    documents: list[Document],
    vocab_size: int,
    num_topics: int,
    cfg: engine.InferenceConfig | None = None,
    em_iters: int = 20,
    seed: int = 0,
) -> CtmFit:
    """Variational EM: per-document inference, then topic and prior refits.

    Topics start from Dirichlet(1) rows drawn by numerics.uniforms at `seed`
    (the same start on every numpy).  The reported objective per EM
    iteration is the approximate data bound summed over documents.
    """
    if not documents:
        raise ValueError("cannot fit a topic model to an empty corpus")
    ids, counts, doc = pack_corpus(documents)
    used_terms = len(set(ids.tolist()))  # np.unique loads numpy.ma; bincount sizes by max id
    if num_topics < 1:
        raise ValueError("need at least 1 topic")
    if num_topics > used_terms:
        raise ValueError(f"{num_topics} topics exceed the {used_terms} distinct terms in use")
    if em_iters < 1:
        raise ValueError("em_iters must be at least 1")
    cfg = cfg or engine.InferenceConfig()
    num_docs = len(documents)
    live = np.bincount(doc, minlength=num_docs) > 0
    term_index = _sum_index(ids, vocab_size, num_topics)

    # Dirichlet(1) rows: normalized exponentials -log(1 - u)
    topics = -np.log1p(-numerics.uniforms(seed, num_topics * vocab_size)).reshape(num_topics, -1)
    topics = np.maximum(topics / topics.sum(axis=1, keepdims=True), _BETA_SMOOTH)
    topics /= topics.sum(axis=1, keepdims=True)
    params = CtmParams(topics, np.zeros(num_topics), np.eye(num_topics))

    fit = CtmFit(params=params, trace=engine.InferenceTrace(), word_count=int(counts.sum()))
    start = time.perf_counter()

    for it in range(1, em_iters + 1):
        mu, sigma, objective, phi, _ = _fit(params, ids, counts, doc, num_docs, cfg)
        # Each document's monitor plus the prior and entropy constants it
        # drops; an empty document contributes zero.  Summed in document order.
        doc_bounds = objective - 0.5 * params.prior_log_det + 0.5 * num_topics
        bound = sum(np.where(live, doc_bounds, 0.0).tolist())

        new_mu0 = mu.mean(axis=0)
        dev = mu - new_mu0
        cov_sum = np.sum(sigma + dev[:, :, None] * dev[:, None, :], axis=0)
        new_sigma0 = cov_sum / num_docs + _COV_RIDGE * np.eye(num_topics)

        topics = _doc_sums(counts * phi, term_index, vocab_size) + _BETA_SMOOTH
        topics /= topics.sum(axis=1, keepdims=True)
        mean_change = float(np.linalg.norm(new_mu0 - params.prior_mean))
        params = CtmParams(topics, new_mu0, new_sigma0)

        fit.bounds.append(bound)
        fit.trace.append(
            engine.TraceRecord(it, bound, mean_change, time.perf_counter() - start)
        )

    fit.params = params
    fit.doc_states = _doc_states(mu, sigma, objective, phi, doc)
    return fit
