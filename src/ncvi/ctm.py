"""Correlated topic model: per-document inference and variational EM.

Topic proportions are softmax(theta) with theta ~ N(prior_mean, prior_cov),
so eta(theta) = theta - log sum_k exp(theta_k) and the log normalizer of the
assignment family vanishes.  The curvature-corrected update restricts the
per-document covariance to a diagonal.

The model maths is written once over a leading document axis.  `infer_docs`
fits all documents at once with damped Newton steps on the exact K x K
Hessian; `CtmDocModel`, its one-document view, runs on the generic engine as
the reference path.  Sums over terms use np.bincount (row order) and products
with the prior precision np.einsum, not BLAS, so a document's result is
bitwise independent of the rest of its batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import engine, numerics, optimize
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
    "infer_docs",
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


# Batched model maths: theta, stats and pi are (D, K), one document per row;
# per-term arrays (phi, log_beta, counts) have one row per (document, term)
# pair, and `doc` maps each such row to its document.


def _value_grad(theta, stats, params: CtmParams):
    """f per document with its gradient and the proportions pi = softmax(theta)."""
    eta = theta - numerics.log_sum_exp(theta, axis=1)[:, None]
    diff = theta - params.prior_mean
    pull = np.einsum("dk,kj->dj", diff, params.prior_inv)
    value = np.einsum("dk,dk->d", eta, stats) - 0.5 * np.einsum("dk,dk->d", diff, pull)
    pi = np.exp(eta)
    return value, stats - pi * stats.sum(axis=1, keepdims=True) - pull, pi


def _hessian(pi, stats, params: CtmParams):
    """Hessian of f per document: n (pi pi' - diag pi) - prior precision."""
    n = stats.sum(axis=1)[:, None, None]
    outer = pi[:, :, None] * pi[:, None, :]
    return n * (outer - pi[:, :, None] * np.eye(pi.shape[1])) - params.prior_inv


def _trace_grad(pi, stats, sig):
    """Gradient of theta -> Tr{Hessian f(theta) diag(sig)} per document."""
    slope = (2.0 * pi - 1.0) * sig
    n = stats.sum(axis=1, keepdims=True)
    return n * pi * (slope - np.sum(pi * slope, axis=1, keepdims=True))


def _trace_hessian(pi, stats, sig):
    """Hessian of theta -> Tr{Hessian f(theta) diag(sig)} per document."""
    slope = (2.0 * pi - 1.0) * sig
    lift = pi * (slope - np.sum(pi * slope, axis=1, keepdims=True) + 2.0 * sig * pi)
    cross = lift[:, :, None] * pi[:, None, :]
    spread = 2.0 * np.sum(sig * pi * pi, axis=1)[:, None, None] * (pi[:, :, None] * pi[:, None, :])
    hess = lift[:, :, None] * np.eye(pi.shape[1]) - cross - cross.transpose(0, 2, 1) + spread
    return stats.sum(axis=1)[:, None, None] * hess


def _assignments(mu_rows, log_beta):
    # phi_wk proportional to beta_kw exp(mu_k).  log sum_j exp(mu_j) and the
    # second-order correction of E[eta_k], whose Hessian -(diag pi - pi pi')
    # is the same for every k, shift all topics alike and cancel in the
    # normalization over topics.
    return numerics.softmax(mu_rows + log_beta, axis=1)


def _doc_sums(rows, doc, num_docs):
    """Per-document sums of the per-term rows of a 2-D array."""
    width = rows.shape[1]
    idx = (doc[:, None] * width + np.arange(width)).ravel()
    return np.bincount(idx, rows.ravel(), num_docs * width).reshape(num_docs, width)


def _qz_terms(phi, log_beta, counts, doc, num_docs):
    """Per document: the entropy of q(z) and E_q(z)[log p(w | z)], as rows."""
    entropy = -np.sum(phi * np.log(np.where(phi > 0.0, phi, 1.0)), axis=1)
    model = np.sum(np.where(phi > 0.0, phi * log_beta, 0.0), axis=1)
    return _doc_sums(counts[:, None] * np.stack([entropy, model], axis=1), doc, num_docs).T


def _doc_terms(params: CtmParams, doc: Document):
    """Term ids, counts and log topic columns (one row per term) of a document."""
    items = doc.items()
    term_ids = np.array([i for i, _ in items], dtype=int)
    term_counts = np.array([c for _, c in items], dtype=float)
    if np.any(term_ids >= params.vocab_size):
        raise ValueError("document term outside the topic vocabulary")
    cols = params.topics[:, term_ids]  # (K, U)
    if cols.size and np.any(cols.max(axis=0) <= 0.0):
        bad = int(term_ids[np.argmax(cols.max(axis=0) <= 0.0)])
        raise ValueError(f"term {bad} has zero probability under every topic")
    with np.errstate(divide="ignore"):
        return term_ids, term_counts, np.log(cols.T)


class CtmDocModel(ModelContract):
    """One document's problem for the generic engine: the one-document view
    of the batched maths that `infer_docs` runs."""

    delta_diagonal = True

    def __init__(self, params: CtmParams, doc: Document):
        self._params = params
        _, self._term_counts, self._log_beta = _doc_terms(params, doc)
        self._doc = np.zeros(self._term_counts.size, dtype=int)

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

    def expected_stats(self, q_z: ConjugateVariational) -> ExpectedStats:
        phi = np.asarray(q_z.phi, dtype=float).reshape(-1, self.dim)
        return ExpectedStats(_doc_sums(self._term_counts[:, None] * phi, self._doc, 1)[0])

    def conjugate_update(self, q_theta: GaussianVariational, data=None) -> ConjugateVariational:
        return ConjugateVariational(_assignments(q_theta.mu[None, :], self._log_beta))

    def _qz_terms(self, q_z: ConjugateVariational) -> np.ndarray:
        phi = np.asarray(q_z.phi, dtype=float).reshape(-1, self.dim)
        return _qz_terms(phi, self._log_beta, self._term_counts, self._doc, 1)[:, 0]

    def qz_entropy(self, q_z: ConjugateVariational) -> float:
        return float(self._qz_terms(q_z)[0])

    def qz_model_terms(self, q_z: ConjugateVariational) -> float:
        return float(self._qz_terms(q_z)[1])


def _newton(evaluate, x):
    """Damped Newton ascent of one problem per row of x, each on its own.

    `evaluate(x, rows)` gives the objective, its gradient and a positive
    definite Newton matrix at those rows.  Steps halve from the full Newton
    step until the Armijo test passes.  A row stops at the optimizer's
    grad_tol, or once an accepted step no longer raises its value; the rows
    still running at the optimizer's max_iters are returned as a mask.
    """
    cfg = optimize.OptimizerConfig()
    x = x.copy()
    rows = np.arange(len(x))
    value, grad, mat = evaluate(x, rows)
    run = np.linalg.norm(grad, axis=1) > cfg.grad_tol
    capped = np.zeros(len(x), dtype=bool)
    for it in range(cfg.max_iters):
        rows, value, grad, mat = rows[run], value[run], grad[run], mat[run]
        if not rows.size:
            break
        direction = np.linalg.solve(mat, grad[:, :, None])[:, :, 0]
        slope = np.einsum("dk,dk->d", grad, direction)
        step = np.ones(rows.size)
        trial = np.empty_like(grad)
        new_value, new_grad, new_mat = np.empty_like(value), np.empty_like(grad), np.empty_like(mat)
        todo = np.arange(rows.size)
        for _ in range(optimize._MAX_SHRINKS + 1):
            trial[todo] = x[rows[todo]] + step[todo, None] * direction[todo]
            v, g, m = evaluate(trial[todo], rows[todo])
            ok = np.isfinite(v) & np.all(np.isfinite(g), axis=1)
            ok &= v >= value[todo] + optimize._ARMIJO_C * step[todo] * slope[todo]
            new_value[todo[ok]], new_grad[todo[ok]], new_mat[todo[ok]] = v[ok], g[ok], m[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            step[todo] *= optimize._SHRINK
        else:
            bad = todo[0]
            raise optimize.LineSearchStallError(optimize.OptimResult(
                x[rows[bad]], float(value[bad]), float(np.linalg.norm(grad[bad])), it, False
            ))
        x[rows] = trial
        run = (new_value > value) & (np.linalg.norm(new_grad, axis=1) > cfg.grad_tol)
        value, grad, mat = new_value, new_grad, new_mat
    else:
        capped[rows[run]] = True
    return x, capped


def _laplace(params, stats, mu, sigma):
    """The mode of f per document, Sigma = (-H)^{-1} there (exactly
    symmetric, from the Cholesky factor), log|Sigma| and the Newton cap mask."""

    def evaluate(theta, rows):
        value, grad, pi = _value_grad(theta, stats[rows], params)
        return value, grad, -_hessian(pi, stats[rows], params)

    mu, capped = _newton(evaluate, mu)
    try:
        chol = np.linalg.cholesky(-_hessian(numerics.softmax(mu, axis=1), stats, params))
    except np.linalg.LinAlgError:
        raise engine.NonConcaveError("negated Hessian not positive definite") from None
    inv_chol = np.linalg.inv(chol)
    sigma = np.einsum("dji,djk->dik", inv_chol, inv_chol)
    log_det = -2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return mu, sigma, log_det, capped


def _delta(params, stats, mu, sigma):
    """Alternate a damped Newton ascent of f + Tr{H diag(sig)}/2 in mu with
    the closed-form diagonal Sigma update, each document for up to
    _DELTA_INNER_ROUNDS rounds.  The Newton matrix is the exact -Hessian of
    that objective where it is positive definite, else f's -Hessian: the
    trace term's curvature dominates where a weak prior direction meets
    small topic proportions."""
    mu = mu.copy()
    sig = np.diagonal(sigma, axis1=1, axis2=2).copy()
    log_det = np.zeros(len(mu))
    capped = np.zeros(len(mu), dtype=bool)
    prev = np.full(len(mu), -np.inf)
    todo = np.arange(len(mu))
    for _ in range(engine._DELTA_INNER_ROUNDS):
        s, fixed = stats[todo], sig[todo]

        def evaluate(theta, rows):
            value, grad, pi = _value_grad(theta, s[rows], params)
            hess = _hessian(pi, s[rows], params)
            h_diag = np.diagonal(hess, axis1=1, axis2=2)
            value = value + 0.5 * np.sum(h_diag * fixed[rows], axis=1)
            grad = grad + 0.5 * _trace_grad(pi, s[rows], fixed[rows])
            exact = -hess - 0.5 * _trace_hessian(pi, s[rows], fixed[rows])
            concave = np.linalg.eigvalsh(exact)[:, :1, None] > 0.0
            return value, grad, np.where(concave, exact, -hess)

        mu[todo], cap = _newton(evaluate, mu[todo])
        capped[todo] |= cap
        value, _, pi = _value_grad(mu[todo], s, params)
        h_diag = np.diagonal(_hessian(pi, s, params), axis1=1, axis2=2)
        sig[todo] = 1.0 / -h_diag
        log_det[todo] = -np.sum(np.log(-h_diag), axis=1)
        current = value + 0.5 * np.sum(h_diag * sig[todo], axis=1) + 0.5 * log_det[todo]
        done = current - prev[todo] < engine._DELTA_INNER_TOL
        prev[todo] = current
        todo = todo[~done]
        if not todo.size:
            break
    return mu, sig[:, :, None] * np.eye(mu.shape[1]), log_det, capped


def _coordinate_ascent(params, counts, log_beta, doc, num_docs, cfg):
    """The engine's outer loop for every document at once: refit q(theta),
    update q(z), record the approximate objective, and retire each document
    once its mean moves less than cfg.conv_tol.  A document whose last
    q(theta) refit stopped at the Newton iteration cap reports
    converged=False."""
    refit = _laplace if cfg.method == "laplace" else _delta
    k = params.num_topics
    mu = np.zeros((num_docs, k))
    sigma = np.broadcast_to(np.eye(k), (num_docs, k, k)).copy()
    phi = _assignments(mu[doc], log_beta)
    stats = _doc_sums(counts[:, None] * phi, doc, num_docs)
    traces = [engine.InferenceTrace() for _ in range(num_docs)]
    active = np.arange(num_docs)
    start = time.perf_counter()
    for it in range(1, cfg.max_outer_iters + 1):
        rows = np.flatnonzero(np.isin(doc, active))
        sub = np.searchsorted(active, doc[rows])
        n = active.size
        new_mu, new_sigma, log_det, capped = refit(params, stats[active], mu[active], sigma[active])
        new_phi = _assignments(new_mu[sub], log_beta[rows])
        new_stats = _doc_sums(counts[rows, None] * new_phi, sub, n)
        value, _, pi = _value_grad(new_mu, new_stats, params)
        curvature = np.einsum("dij,dij->d", _hessian(pi, new_stats, params), new_sigma)
        entropy, model = _qz_terms(new_phi, log_beta[rows], counts[rows], sub, n)
        obj = value + 0.5 * (curvature + log_det) + entropy + model
        change = np.linalg.norm(new_mu - mu[active], axis=1)
        mu[active], sigma[active], stats[active] = new_mu, new_sigma, new_stats
        phi[rows] = new_phi
        seconds = time.perf_counter() - start
        for d, o, c, cap in zip(active, obj, change, capped):
            traces[d].append(engine.TraceRecord(it, float(o), float(c), seconds))
            traces[d].converged = bool(c < cfg.conv_tol and not cap)
        active = active[change >= cfg.conv_tol]
        if not active.size:
            break
    return mu, sigma, phi, traces


def infer_docs(
    params: CtmParams,
    docs: list[Document],
    cfg: engine.InferenceConfig | None = None,
) -> list[tuple[CtmDocState, engine.InferenceTrace]]:
    """Variational inference for every document at once.

    Each document starts from mean zero with unit covariance and an
    assignment update computed from that start, and stops on its own
    mean-change test, so its result does not depend on the other documents.
    An empty document short-circuits to the prior: the exponent is the prior
    density alone, whose curvature fit is exact.
    """
    cfg = cfg or engine.InferenceConfig()
    k = params.num_topics
    terms = [_doc_terms(params, doc) for doc in docs]
    live = [d for d, (ids, _, _) in enumerate(terms) if ids.size]
    results = []
    for ids, counts, _ in terms:
        trace = engine.InferenceTrace()
        trace.converged = True
        q = GaussianVariational(params.prior_mean.copy(), params.prior_cov.copy())
        results.append((CtmDocState(q, np.zeros((0, k)), ids, counts, 0.0), trace))
    if live:
        sizes = [terms[d][0].size for d in live]
        counts, log_beta = (np.concatenate([terms[d][j] for d in live]) for j in (1, 2))
        doc = np.repeat(np.arange(len(live)), sizes)
        mu, sigma, phi, traces = _coordinate_ascent(params, counts, log_beta, doc, len(live), cfg)
        for i, (d, phi_d) in enumerate(zip(live, np.split(phi, np.cumsum(sizes)[:-1]))):
            q = GaussianVariational(mu[i], sigma[i])
            state = CtmDocState(q, phi_d, *terms[d][:2], traces[i].records[-1].objective)
            results[d] = (state, traces[i])
    return results


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
        states = [state for state, _ in infer_docs(params, documents, cfg)]

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
