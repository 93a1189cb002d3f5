"""Shared synthetic-data builders for the test suite, two views into the
engine's internals, and oracles that share no code with the ascent.

Every generator draws from the model being tested, with a fixed seed, so
oracle properties (monotone monitors, recovery checks) hold by construction
rather than by accident of the data.
"""

import dataclasses

import numpy as np
import pytest
import scipy.optimize

from ncvi import ctm, engine, numerics
from ncvi.model import Document, LabeledInstance


def delta_profile(model, stats, shift):
    """The engine's objective for one model at one point: the delta profile
    g = f + (log|Sigma| - dim)/2 at the given shift, as (value, gradient,
    Newton direction)."""
    evaluate = engine._ModelRows(model).ascent([stats], shift)
    return lambda theta: tuple(a[0] for a in evaluate(np.asarray(theta, float)[None], [0]))


def stopped_short(newton):
    """`newton` reporting that no row reached grad_tol."""

    def short(*args, **kwargs):
        result = newton(*args, **kwargs)
        return dataclasses.replace(result, converged=np.zeros_like(result.converged))

    return short


def trust_exact_argmax(value_grad, hessian, x0):
    """scipy's trust-region minimizer with exact Hessians, run on -f: an
    oracle for the Newton ascent that shares none of its code."""
    res = scipy.optimize.minimize(
        lambda t: -value_grad(t)[0], x0, jac=lambda t: -value_grad(t)[1],
        hess=lambda t: -hessian(t), method="trust-exact", options={"gtol": 1e-9},
    )
    # it may stop once rounding hides the predicted gain, below gtol or not
    assert np.linalg.norm(res.jac) <= 1e-7
    return res.x


def profile_hessian(profile, theta):
    """Hessian of the delta profile by central differences of its gradient."""
    rows = [numerics.finite_diff_gradient(lambda t: profile(t)[1][i], theta)
            for i in range(theta.size)]
    return 0.5 * (np.array(rows) + np.array(rows).T)


def make_unigram_corpus(seed, vocab_size, num_docs, tokens_per_doc=30):
    """Documents drawn from one shared Dirichlet whose parameters are
    log-normal, matching the generative story the model assumes."""
    rng = np.random.default_rng(seed)
    theta_star = rng.normal(size=vocab_size)
    docs = []
    for _ in range(num_docs):
        z = rng.dirichlet(np.exp(theta_star))
        counts = rng.multinomial(tokens_per_doc, z)
        docs.append(Document({i: int(c) for i, c in enumerate(counts) if c > 0}))
    return docs, theta_star


def make_ctm_params(seed, num_topics, vocab_size, topic_conc=0.1, cov_scale=0.3):
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.full(vocab_size, topic_conc), size=num_topics)
    mu0 = rng.normal(scale=0.5, size=num_topics)
    a = rng.normal(size=(num_topics, num_topics)) * cov_scale
    sigma0 = a @ a.T + 0.5 * np.eye(num_topics)
    return ctm.CtmParams(topics, mu0, sigma0)


def make_ctm_corpus(seed, params, num_docs, tokens_per_doc=60):
    """Documents sampled from given topic-model parameters."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(num_docs):
        eta = rng.multivariate_normal(params.prior_mean, params.prior_cov)
        w = np.exp(eta - eta.max())
        w /= w.sum()
        counts = rng.multinomial(tokens_per_doc, w @ params.topics)
        docs.append(Document({i: int(c) for i, c in enumerate(counts) if c > 0}))
    return docs


def make_blr_problem(seed, num_instances, dim, coef_scale=1.0):
    """Labeled instances from a logistic model with known coefficients."""
    rng = np.random.default_rng(seed)
    covs = rng.normal(size=(num_instances, dim))
    coefs = rng.normal(scale=coef_scale, size=dim)
    probs = 1.0 / (1.0 + np.exp(-covs @ coefs))
    labels = (rng.random(num_instances) < probs).astype(int)
    instances = [
        LabeledInstance(covs[n], (int(labels[n]), 1 - int(labels[n])))
        for n in range(num_instances)
    ]
    return instances, coefs


def make_instance(covariates, label):
    label = int(label)
    return LabeledInstance(np.asarray(covariates, dtype=float), (label, 1 - label))


def random_spd(rng, dim, spread=(0.5, 5.0)):
    evals = rng.uniform(*spread, size=dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q @ np.diag(evals) @ q.T


@pytest.fixture(scope="session")
def em_corpus():
    """Big synthetic topic corpus shared by the slow end-to-end checks."""
    params = make_ctm_params(11, num_topics=5, vocab_size=100, topic_conc=0.2)
    docs = make_ctm_corpus(12, params, num_docs=200, tokens_per_doc=80)
    return params, docs
