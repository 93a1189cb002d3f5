"""Reference model: log-normal prior over Dirichlet parameters with
per-document Dirichlet-multinomial observations."""

import numpy as np
import pytest

from ncvi import numerics, unigram
from ncvi.engine import InferenceConfig
from ncvi.model import ConjugateVariational, Document, ExpectedStats, GaussianVariational

from conftest import make_unigram_corpus

E_HALF = 1.6487212707001282  # exp(1/2)


def random_point(rng, v, d):
    theta = rng.uniform(-2.0, 2.0, size=v)
    # expected log-probabilities are negative per document
    stats = ExpectedStats(-rng.uniform(0.1, 3.0, size=v) * max(d, 1))
    return theta, stats


class TestExponentValueGrad:
    def test_zero_point_two_terms_one_doc(self):
        model = unigram.UnigramModel(2, [Document({0: 1})])
        value, grad = model.f_value_grad(np.zeros(2), ExpectedStats(np.zeros(2)))
        # all log-gamma terms vanish at Dirichlet(1,1), prior term is zero
        assert value == pytest.approx(0.0, abs=1e-12)
        assert grad.shape == (2,)

    def test_prior_only_when_no_documents(self):
        model = unigram.UnigramModel(3, [])
        theta = np.array([0.5, -1.0, 2.0])
        value, grad = model.f_value_grad(theta, ExpectedStats(np.zeros(3)))
        assert value == pytest.approx(-0.5 * float(theta @ theta), abs=1e-12)
        np.testing.assert_allclose(grad, -theta, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = int(rng.integers(2, 6))
            d = int(rng.integers(0, 4))
            model = unigram.UnigramModel(v, [Document({0: 1})] * d)
            theta, stats = random_point(rng, v, d)
            _, grad = model.f_value_grad(theta, stats)
            fd = numerics.finite_diff_gradient(
                lambda t: model.f_value_grad(t, stats)[0], theta
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = int(rng.integers(2, 5))
            model = unigram.UnigramModel(v, [Document({0: 2})])
            theta, stats = random_point(rng, v, 1)
            hess = model.f_hessian(theta, stats)
            for i in range(v):
                fd = numerics.finite_diff_gradient(
                    lambda t: model.f_value_grad(t, stats)[1][i], theta
                )
                np.testing.assert_allclose(hess[i], fd, rtol=1e-4, atol=1e-6)

    def test_trace_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = int(rng.integers(2, 5))
            model = unigram.UnigramModel(v, [Document({0: 2})])
            theta, stats = random_point(rng, v, 1)
            b = rng.normal(size=(v, v))
            sigma = b.T @ b / v + np.eye(v)

            def trace_of_hessian(t):
                return float(np.sum(model.f_hessian(t, stats) * sigma))

            tg = model.trace_grad(theta, sigma, stats)
            fd = numerics.finite_diff_gradient(trace_of_hessian, theta)
            np.testing.assert_allclose(tg, fd, rtol=1e-3, atol=1e-5)

    def test_overflow_guard(self):
        # f_value_grad rejects such a trial (TestRateUnderflow); the curvature
        # and the conjugate update, evaluated only at accepted points, raise
        model = unigram.UnigramModel(2, [Document({0: 1})])
        theta, stats = np.array([701.0, 0.0]), ExpectedStats(np.zeros(2))
        with pytest.raises(OverflowError):
            model.f_hessian(theta, stats)
        with pytest.raises(OverflowError):
            model.trace_grad(theta, np.eye(2), stats)
        with pytest.raises(OverflowError):
            model.eta_expectation(GaussianVariational(theta, np.zeros((2, 2))))


class TestRateUnderflow:
    """exp(theta) underflowing to 0, or passing the overflow guard, in a
    line-search trial is a rejected step, not an input error or a numerical
    failure, and tiny rates keep the curvature finite."""

    def test_underflowed_trial_reports_minus_infinity(self):
        model = unigram.UnigramModel(2, [Document({0: 1})])
        value, grad = model.f_value_grad(
            np.array([-800.0, 0.0]), ExpectedStats(np.zeros(2))
        )
        assert value == -np.inf
        assert not np.all(np.isfinite(grad))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("big", [701.0, 800.0])
    def test_overflowed_trial_reports_minus_infinity(self, big):
        # 701 passes the guard while exp is still finite; 800 overflows exp
        model = unigram.UnigramModel(2, [Document({0: 1})])
        theta, stats = np.array([big, 0.0]), ExpectedStats(np.zeros(2))
        value, grad = model.f_value_grad(theta, stats)
        assert value == -np.inf
        assert np.all(np.isnan(grad))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_curvature_reaches_its_small_rate_limit(self):
        # b^2 psi'(b) -> 1 and b^3 psi''(b) -> -2 as b -> 0, so the curvature
        # at theta_0 = -400 (b_0 ~ 1e-174) equals that at -40 (b_0 ~ 4e-18)
        # to O(b_0)
        rng = np.random.default_rng(12)
        theta, stats = random_point(rng, 4, 3)
        model = unigram.UnigramModel(4, [Document({1: 2, 2: 1})] * 3)
        sigma = np.diag(rng.uniform(0.1, 1.0, size=4))
        out = {}
        for t0 in (-40.0, -400.0):
            theta[0] = t0
            out[t0] = (
                model.f_hessian(theta, stats),
                model.trace_grad(theta, sigma, stats),
            )
        for tiny, small in zip(out[-400.0], out[-40.0]):
            np.testing.assert_allclose(tiny, small, rtol=1e-12, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_delta_reproducer_converges(self):
        docs, _ = make_unigram_corpus(1, 100, 50, tokens_per_doc=200)
        q, _, trace = unigram.infer(docs, 100, InferenceConfig(method="delta"))
        assert trace.converged
        assert np.all(np.isfinite(q.mu)) and np.all(np.diag(q.sigma) > 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_laplace_reproducer_runs_to_the_cap(self):
        docs, _ = make_unigram_corpus(1, 100, 200, tokens_per_doc=200)
        q, _, trace = unigram.infer(docs, 100)
        assert not trace.converged and len(trace) == 100
        assert np.all(np.isfinite(q.mu)) and np.all(np.diag(q.sigma) > 0.0)


class TestExpectedStats:
    def test_single_uniform_dirichlet(self):
        model = unigram.UnigramModel(2, [Document({0: 1})])
        stats = model.expected_stats(ConjugateVariational(np.array([[1.0, 1.0]])))
        np.testing.assert_allclose(stats.values, [-1.0, -1.0], atol=1e-10)

    def test_additive_over_documents(self):
        model = unigram.UnigramModel(2, [Document({0: 1})] * 2)
        one = unigram.UnigramModel(2, [Document({0: 1})]).expected_stats(
            ConjugateVariational(np.array([[2.0, 3.0]]))
        )
        two = model.expected_stats(ConjugateVariational(np.array([[2.0, 3.0]] * 2)))
        np.testing.assert_allclose(two.values, 2.0 * one.values, atol=1e-12)

    def test_per_document_terms_nonpositive(self):
        rng = np.random.default_rng(3)
        phi = rng.uniform(0.2, 8.0, size=(1, 5))
        model = unigram.UnigramModel(5, [Document({0: 1})])
        stats = model.expected_stats(ConjugateVariational(phi))
        assert (stats.values <= 0.0).all()


class TestEtaExpectation:
    def test_standard_normal_gives_e_half(self):
        model = unigram.UnigramModel(3, [Document({0: 1})])
        q = GaussianVariational(np.zeros(3), np.eye(3))
        np.testing.assert_allclose(
            model.eta_expectation(q), np.full(3, E_HALF), atol=1e-12
        )

    def test_degenerate_covariance_limit(self):
        model = unigram.UnigramModel(2, [Document({0: 1})])
        mu = np.array([0.3, -1.1])
        q = GaussianVariational(mu, 1e-300 * np.eye(2))
        np.testing.assert_allclose(model.eta_expectation(q), np.exp(mu), rtol=1e-12)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        mu = np.array([0.2, -0.5])
        a = rng.normal(size=(2, 2)) * 0.3
        sigma = a @ a.T + 0.2 * np.eye(2)
        model = unigram.UnigramModel(2, [Document({0: 1})])
        q = GaussianVariational(mu, sigma)
        draws = rng.multivariate_normal(mu, sigma, size=1_000_000)
        mc = np.exp(draws).mean(axis=0)
        np.testing.assert_allclose(model.eta_expectation(q), mc, rtol=1e-2)


class TestConjugateUpdate:
    def test_standard_normal_prior_with_counts(self):
        model = unigram.UnigramModel(3, [Document({0: 2, 2: 1})])
        q = GaussianVariational(np.zeros(3), np.eye(3))
        qz = model.conjugate_update(q)
        np.testing.assert_allclose(
            qz.phi[0], [E_HALF + 2.0, E_HALF, E_HALF + 1.0], atol=1e-12
        )

    def test_parameters_always_positive(self):
        rng = np.random.default_rng(5)
        docs, _ = make_unigram_corpus(5, vocab_size=4, num_docs=3)
        model = unigram.UnigramModel(4, docs)
        for _ in range(10):
            mu = rng.normal(scale=2.0, size=4)
            q = GaussianVariational(mu, 0.5 * np.eye(4))
            qz = model.conjugate_update(q)
            assert (np.asarray(qz.phi) > 0.0).all()


class TestInference:
    def test_uniform_documents_give_symmetric_posterior(self):
        docs = [Document({0: 4, 1: 4, 2: 4})] * 3
        q, _, trace = unigram.infer(docs, 3)
        assert trace.converged
        assert np.ptp(q.mu) <= 1e-6

    def test_permutation_equivariance(self):
        docs, _ = make_unigram_corpus(6, vocab_size=4, num_docs=5)
        perm = np.array([2, 0, 3, 1])
        permuted = [
            Document({int(perm[i]): c for i, c in doc.counts.items()}) for doc in docs
        ]
        cfg = InferenceConfig(conv_tol=1e-10)
        q1, _, _ = unigram.infer(docs, 4, cfg)
        q2, _, _ = unigram.infer(permuted, 4, cfg)
        np.testing.assert_allclose(q2.mu[perm], q1.mu, atol=1e-8)

    def test_monitor_nondecreasing_on_model_consistent_data(self):
        docs, _ = make_unigram_corpus(7, vocab_size=5, num_docs=4)
        cfg = InferenceConfig(conv_tol=1e-12, max_outer_iters=20)
        _, _, trace = unigram.infer(docs, 5, cfg)
        objs = [r.objective for r in trace.records]
        assert (np.diff(objs) >= -1e-6).all()

    def test_posterior_concentrates_with_data(self):
        few, _ = make_unigram_corpus(8, vocab_size=3, num_docs=1, tokens_per_doc=10)
        many, _ = make_unigram_corpus(8, vocab_size=3, num_docs=40, tokens_per_doc=50)
        q_few, _, _ = unigram.infer(few, 3)
        q_many, _, _ = unigram.infer(many, 3)
        assert np.trace(q_many.sigma) < np.trace(q_few.sigma)

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            unigram.UnigramModel(1, [Document({0: 1})])
