"""Topic model with a logistic-normal document prior."""

import dataclasses

import numpy as np
import pytest

from ncvi import ctm, engine, numerics, optimize
from ncvi.engine import InferenceConfig
from ncvi.model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    pack_corpus,
)

from conftest import delta_profile, make_ctm_corpus, make_ctm_params, random_spd


def simple_params(k=2, v=3):
    topics = np.full((k, v), 1.0 / v)
    topics[0, 0] += 0.1
    topics[0, 1] -= 0.1
    topics = topics / topics.sum(axis=1, keepdims=True)
    return ctm.CtmParams(topics, np.zeros(k), np.eye(k))


class TestExponent:
    def test_value_at_zero_is_log_mixture_weight_times_stats(self):
        params = simple_params()
        model = ctm.CtmDocModel(params, Document({0: 2, 1: 1}))
        s = np.array([2.0, 1.0])
        value, grad = model.f_value_grad(np.zeros(2), ExpectedStats(s))
        # softmax at zero is uniform, prior term vanishes at the prior mean
        assert value == pytest.approx(-np.log(2.0) * s.sum(), abs=1e-12)
        np.testing.assert_allclose(grad, s - 0.5 * s.sum(), atol=1e-12)

    def test_zero_stats_peak_at_prior_mean_with_prior_curvature(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(3, 3)) * 0.4
        cov = b @ b.T + np.eye(3)
        topics = rng.dirichlet(np.ones(4), size=3)
        params = ctm.CtmParams(topics, np.zeros(3), cov)
        model = ctm.CtmDocModel(params, Document({0: 1}))
        _, grad = model.f_value_grad(np.zeros(3), ExpectedStats(np.zeros(3)))
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(
            model.f_hessian(np.zeros(3), ExpectedStats(np.zeros(3))),
            -np.linalg.inv(cov),
            atol=1e-10,
        )

    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            topics = rng.dirichlet(np.ones(6), size=k)
            params = ctm.CtmParams(topics, rng.normal(size=k), np.eye(k) * 0.7)
            model = ctm.CtmDocModel(params, Document({0: 1, 2: 3}))
            theta = rng.uniform(-1.5, 1.5, size=k)
            stats = ExpectedStats(rng.uniform(0.0, 3.0, size=k))
            _, grad = model.f_value_grad(theta, stats)
            fd = numerics.finite_diff_gradient(
                lambda t: model.f_value_grad(t, stats)[0], theta
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
            hess = model.f_hessian(theta, stats)
            for i in range(k):
                row = numerics.finite_diff_gradient(
                    lambda t: model.f_value_grad(t, stats)[1][i], theta
                )
                np.testing.assert_allclose(hess[i], row, rtol=1e-4, atol=1e-6)


class TestCurvatureTraceGradient:
    def test_zero_covariance_gives_zero(self):
        params = simple_params(3, 5)
        model = ctm.CtmDocModel(params, Document({0: 4}))
        out = model.trace_grad(np.array([0.3, -0.2, 0.5]), np.zeros((3, 3)),
                               ExpectedStats(np.array([1.0, 2.0, 1.0])))
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-15)

    def test_symmetric_point_gives_equal_components(self):
        params = simple_params(3, 5)
        model = ctm.CtmDocModel(params, Document({0: 4}))
        out = model.trace_grad(np.zeros(3), 0.7 * np.eye(3),
                               ExpectedStats(np.full(3, 2.0)))
        assert np.ptp(out) <= 1e-14

    def test_matches_finite_differences_of_weighted_curvature(self):
        rng = np.random.default_rng(2)
        params = simple_params(4, 6)
        model = ctm.CtmDocModel(params, Document({1: 3, 4: 2}))
        stats = ExpectedStats(rng.uniform(0.2, 2.0, size=4))
        sigma = np.diag(rng.uniform(0.1, 1.0, size=4))
        theta = rng.uniform(-1.0, 1.0, size=4)

        def weighted_curvature(t):
            # prior part is constant in t, so it drops out of the differences
            return float(np.sum(model.f_hessian(t, stats) * sigma))

        fd = numerics.finite_diff_gradient(weighted_curvature, theta)
        np.testing.assert_allclose(model.trace_grad(theta, sigma, stats), fd,
                                   rtol=1e-3, atol=1e-5)

    def test_hessian_matches_finite_differences_of_trace_gradient(self):
        rng = np.random.default_rng(3)
        params = simple_params(4, 6)
        model = ctm.CtmDocModel(params, Document({1: 3, 4: 2}))
        stats = ExpectedStats(rng.uniform(0.2, 2.0, size=4))
        sig = rng.uniform(0.1, 1.0, size=4)
        theta = rng.uniform(-1.0, 1.0, size=4)
        fd = np.array([
            numerics.finite_diff_gradient(
                lambda t: float(model.trace_grad(t, np.diag(sig), stats)[j]), theta
            )
            for j in range(4)
        ])
        pi = numerics.softmax(theta[None, :], axis=1)
        hess = ctm._trace_hessian(pi, stats.values[None, :], sig[None, :])[0]
        np.testing.assert_array_equal(hess, hess.T)
        np.testing.assert_allclose(hess, fd, rtol=1e-3, atol=1e-5)

    def test_delta_newton_direction_solves_its_exact_curvature(self):
        # the delta Newton matrix is the negated Hessian of the profile
        # g = f + (log|Sigma(theta)| - K)/2, taken here by central
        # differences of g's gradient, with Sigma(theta) = diag(-H)^{-1}
        rng = np.random.default_rng(4)
        params = simple_params(4, 6)
        model = ctm.CtmDocModel(params, Document({1: 3, 4: 2}))
        stats = ExpectedStats(rng.uniform(0.2, 2.0, size=4))
        theta = rng.uniform(-1.0, 1.0, size=4)
        profile = delta_profile(model, stats, 0.0)

        def grad(t):
            return profile(t)[1]

        neg = -np.array([numerics.finite_diff_gradient(lambda t: grad(t)[i], theta)
                         for i in range(4)])
        assert np.all(np.linalg.eigvalsh(0.5 * (neg + neg.T)) > 0.0)
        sigma, _ = model.covariance(theta, stats, 0.0, True)
        direction = model.newton_direction(theta, stats, grad(theta), sigma)
        np.testing.assert_allclose(neg @ direction, grad(theta), rtol=1e-5, atol=1e-7)
        assert np.array_equal(profile(theta)[2], direction)

    def test_rejects_dense_covariance(self):
        params = simple_params()
        model = ctm.CtmDocModel(params, Document({0: 1}))
        sigma = np.array([[0.5, 0.2], [0.2, 0.5]])
        with pytest.raises(ValueError):
            model.trace_grad(np.zeros(2), sigma, ExpectedStats(np.ones(2)))


class TestAssignmentUpdate:
    def test_closed_form_at_isotropic_start(self):
        # equal per-topic expectations cancel in the normalizer, leaving
        # assignments proportional to the topic columns
        params = simple_params(2, 3)
        model = ctm.CtmDocModel(params, Document({0: 1, 2: 2}))
        q = GaussianVariational(np.zeros(2), 0.3 * np.eye(2))
        phi = np.asarray(model.conjugate_update(q).phi)
        cols = params.topics[:, [0, 2]].T
        np.testing.assert_allclose(phi, cols / cols.sum(axis=1, keepdims=True),
                                   atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        params = make_ctm_params(4, 3, 8)
        model = ctm.CtmDocModel(params, Document({1: 2, 5: 1, 7: 4}))
        q = GaussianVariational(rng.normal(size=3), np.diag(rng.uniform(0.1, 1.0, 3)))
        phi = np.asarray(model.conjugate_update(q).phi)
        np.testing.assert_allclose(phi.sum(axis=1), np.ones(3), atol=1e-12)
        assert (phi >= 0.0).all()

    def test_matches_second_order_expectation_of_eta(self):
        # phi_wk proportional to beta_kw exp(E[eta_k]), with E[eta_k] to
        # second order: eta_k(mu) + Tr{H Sigma}/2, H = pi pi' - diag(pi)
        rng = np.random.default_rng(4)
        params = make_ctm_params(5, 4, 10)
        model = ctm.CtmDocModel(params, Document({0: 3, 4: 1, 6: 2, 9: 5}))
        log_beta = np.log(params.topics[:, [0, 4, 6, 9]]).T
        a = rng.normal(size=(4, 4))
        for sigma in (a @ a.T + 0.1 * np.eye(4), np.diag(rng.uniform(0.1, 2.0, 4))):
            for _ in range(5):
                mu = rng.normal(scale=2.0, size=4)
                pi = numerics.softmax(mu)
                hess = np.outer(pi, pi) - np.diag(pi)
                eta = mu - numerics.log_sum_exp(mu) + 0.5 * float(np.sum(hess * sigma))
                log_phi = eta[None, :] + log_beta
                expect = np.exp(log_phi - numerics.log_sum_exp(log_phi, axis=1)[:, None])
                got = model.conjugate_update(GaussianVariational(mu, sigma)).phi
                np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


class TestDocumentInference:
    def test_equal_columns_give_even_assignment(self):
        topics = np.array([[0.4, 0.3, 0.3], [0.4, 0.2, 0.4]])
        params = ctm.CtmParams(topics, np.zeros(2), np.eye(2))
        state, trace = ctm.infer_doc(params, Document({0: 3}))
        assert trace.converged
        np.testing.assert_allclose(state.phi[0], [0.5, 0.5], atol=1e-8)
        assert abs(state.q_theta.mu[0] - state.q_theta.mu[1]) <= 1e-6

    def test_monitor_nondecreasing_on_sampled_docs(self):
        params = make_ctm_params(5, 3, 12)
        docs = make_ctm_corpus(6, params, 3, tokens_per_doc=40)
        for doc in docs:
            _, trace = ctm.infer_doc(params, doc)
            objs = [r.objective for r in trace.records]
            assert (np.diff(objs) >= -1e-6).all()

    def test_separated_topics_recovered_from_doc(self):
        # each topic concentrates on its own half of the vocabulary
        topics = np.array([
            [0.49, 0.49, 0.01, 0.01],
            [0.01, 0.01, 0.49, 0.49],
        ])
        params = ctm.CtmParams(topics, np.zeros(2), np.eye(2))
        state, _ = ctm.infer_doc(params, Document({0: 10, 1: 10}))
        assert (state.phi[:, 0] > 0.95).all()
        pi = numerics.softmax(state.q_theta.mu)
        assert pi[0] > 0.8

    def test_curvature_corrected_method_also_climbs(self):
        params = make_ctm_params(7, 3, 12)
        doc = make_ctm_corpus(8, params, 1, tokens_per_doc=40)[0]
        cfg = InferenceConfig(method="delta")
        state, trace = ctm.infer_doc(params, doc, cfg)
        assert trace.converged
        objs = [r.objective for r in trace.records]
        assert (np.diff(objs) >= -1e-6).all()
        assert np.allclose(state.q_theta.sigma, np.diag(np.diag(state.q_theta.sigma)))

    def test_empty_document_returns_prior(self):
        params = make_ctm_params(9, 3, 6)
        state, trace = ctm.infer_doc(params, Document({}))
        assert trace.converged
        assert len(trace.records) == 0
        np.testing.assert_allclose(state.q_theta.mu, params.prior_mean, atol=0)
        np.testing.assert_allclose(state.q_theta.sigma, params.prior_cov, atol=0)
        assert state.phi.shape == (0, 3)
        assert state.objective == 0.0

    def test_rejects_out_of_vocabulary_term(self):
        params = simple_params(2, 3)
        with pytest.raises(ValueError):
            ctm.CtmDocModel(params, Document({3: 1}))


def engine_reference(params, doc, cfg):
    """The generic engine on the one-document model: the reference path."""
    model = ctm.CtmDocModel(params, doc)
    q0 = GaussianVariational(np.zeros(model.dim), np.eye(model.dim))
    return engine.run_coordinate_ascent(model, None, q0, model.conjugate_update(q0), cfg)


def trace_rows(trace):
    return [(r.iteration, r.objective, r.mean_change) for r in trace.records], trace.converged


class TestBatchInference:
    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_each_document_independent_of_its_batch(self, method):
        params = make_ctm_params(14, 5, 40)
        docs = make_ctm_corpus(15, params, 12, tokens_per_doc=50)
        docs[3:3] = [Document({}), Document({7: 1})]
        cfg = InferenceConfig(method=method)
        full = ctm.infer_docs(params, docs, cfg)
        prefix = ctm.infer_docs(params, docs[:5], cfg)
        for i, doc in enumerate(docs):
            runs = [ctm.infer_doc(params, doc, cfg)] + prefix[i:i + 1]
            want, want_trace = full[i]
            for got, got_trace in runs:
                assert np.array_equal(got.q_theta.mu, want.q_theta.mu)
                assert np.array_equal(got.q_theta.sigma, want.q_theta.sigma)
                assert np.array_equal(got.phi, want.phi)
                assert got.objective == want.objective
                assert trace_rows(got_trace) == trace_rows(want_trace)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_failed_trial_falls_back_for_its_document_alone(self, method, monkeypatch):
        # the document holding a count of 97 fails every stabilizing map: in
        # a batch the failure sends each document's trial through alone, and
        # every document's iterates stay those of its one-document run
        params = make_ctm_params(14, 5, 40)
        docs = make_ctm_corpus(15, params, 8, tokens_per_doc=50)
        docs[2] = Document({**docs[2].counts, 39: 97})
        real, failed = engine._trial, []

        def trial(rows, x, sigma, method):
            if np.any(rows.counts == 97):
                failed.append(len(x))
                raise FloatingPointError("trial fails")
            return real(rows, x, sigma, method)

        monkeypatch.setattr(engine, "_trial", trial)
        cfg = InferenceConfig(method=method)
        full = ctm.infer_docs(params, docs, cfg)
        assert max(failed) > 1 and 1 in failed
        for doc, (want, want_trace) in zip(docs, full):
            got, got_trace = ctm.infer_doc(params, doc, cfg)
            assert np.array_equal(got.q_theta.mu, want.q_theta.mu)
            assert np.array_equal(got.q_theta.sigma, want.q_theta.sigma)
            assert got.objective == want.objective
            assert trace_rows(got_trace) == trace_rows(want_trace)
        assert full[2][1].converged

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_matches_engine_reference(self, method):
        params = make_ctm_params(16, 5, 60, topic_conc=0.2)
        docs = make_ctm_corpus(17, params, 10, tokens_per_doc=80)
        cfg = InferenceConfig(method=method)
        for doc, (state, trace) in zip(docs, ctm.infer_docs(params, docs, cfg)):
            q, q_z, ref_trace = engine_reference(params, doc, cfg)
            np.testing.assert_allclose(state.q_theta.mu, q.mu, rtol=0, atol=1e-6)
            np.testing.assert_allclose(state.q_theta.sigma, q.sigma, rtol=0, atol=1e-6)
            np.testing.assert_allclose(state.phi, q_z.phi, rtol=0, atol=1e-6)
            assert len(trace) == len(ref_trace) and trace.converged
            assert state.objective == pytest.approx(ref_trace.records[-1].objective, rel=1e-9)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_extreme_documents_match_engine_reference(self, method):
        params = make_ctm_params(18, 5, 60, topic_conc=0.2)
        rng = np.random.default_rng(19)
        rot, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        ill = rot @ np.diag(np.logspace(3, -3, 5)) @ rot.T  # condition number 1e6
        cases = [
            (params, make_ctm_corpus(20, params, 2, tokens_per_doc=5000)),
            (params, [Document({int(w): 1}) for w in rng.integers(60, size=4)]),
            (ctm.CtmParams(params.topics, np.zeros(5), 0.5 * (ill + ill.T)),
             make_ctm_corpus(21, params, 3, tokens_per_doc=60)),
            # condition number 1e6 with one nearly flat prior direction
            (ctm.CtmParams(params.topics, np.zeros(5), np.diag(np.logspace(0, 6, 5))),
             make_ctm_corpus(21, params, 3, tokens_per_doc=60)),
            (ctm.CtmParams(params.topics[:1], np.zeros(1), np.eye(1)),
             make_ctm_corpus(22, params, 3, tokens_per_doc=60)),
        ]
        cfg = InferenceConfig(method=method)
        for case_params, docs in cases:
            for doc, (state, trace) in zip(docs, ctm.infer_docs(case_params, docs, cfg)):
                q, _, ref_trace = engine_reference(case_params, doc, cfg)
                np.testing.assert_allclose(
                    numerics.softmax(state.q_theta.mu), numerics.softmax(q.mu), rtol=0, atol=1e-6
                )
                assert state.objective == pytest.approx(ref_trace.records[-1].objective, rel=1e-7)
                assert len(trace) == len(ref_trace)

    def test_laplace_covariance_keeps_the_inline_cholesky_bits(self):
        # the reference recipe, per document: Cholesky, Sigma = L^-T L^-1
        # from the inverse factor, log|Sigma| = -2 sum log diag L
        params = make_ctm_params(25, 5, 30)
        stats = np.random.default_rng(26).integers(0, 40, size=(8, 5)).astype(float)
        rows = ctm._Docs(params, counts=None, log_beta=None, doc=None, num_docs=8)
        mu, sigma, log_det, _ = engine._refit(rows, stats, np.zeros((8, 5)), "laplace")
        chol = np.linalg.cholesky(-ctm._hessian(numerics.softmax(mu, axis=1), stats, params))
        inv_chol = np.linalg.inv(chol)
        assert np.array_equal(sigma, np.einsum("dji,djk->dik", inv_chol, inv_chol))
        want = -2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        assert np.array_equal(log_det, want)

    def test_delta_sigma_keeps_the_inverse_diagonal_bits(self, monkeypatch):
        # the profile's Sigma = diag(1 / (shift - h_ii)) at pi = exp(eta),
        # shift 0, from the evaluation that accepted each mean: no
        # covariance call, and h_ii = n (pi_i^2 - pi_i) - (Sigma0^{-1})_ii
        params = make_ctm_params(25, 5, 30)
        stats = np.random.default_rng(27).integers(0, 40, size=(8, 5)).astype(float)
        rows = ctm._Docs(params, counts=None, log_beta=None, doc=None, num_docs=8)
        monkeypatch.setattr(ctm._Docs, "covariance", lambda *a: pytest.fail("covariance called"))
        mu, sigma, log_det, _ = engine._refit(rows, stats, np.zeros((8, 5)), "delta")
        top = mu.max(axis=1, keepdims=True)
        pi = np.exp(mu - (np.log(np.sum(np.exp(mu - top), axis=1, keepdims=True)) + top))
        h = stats.sum(axis=1, keepdims=True) * (pi * pi - pi) - np.diagonal(params.prior_inv)
        sig = 1.0 / (0.0 - h)
        assert np.array_equal(sigma, sig[:, :, None] * np.eye(5))
        assert np.array_equal(log_det, np.sum(np.log(sig), axis=1))

    def test_laplace_factorization_failure_is_non_concave(self, monkeypatch):
        # -H = n (diag pi - pi pi') + Sigma0^{-1} is positive definite, so only
        # a failing factorization reaches the engine's jitter ladder
        tries = []

        def fail(m):
            tries.append(m)
            raise numerics.NotPositiveDefiniteError("not positive definite")

        params = make_ctm_params(25, 3, 12)
        docs = make_ctm_corpus(26, params, 2, tokens_per_doc=20)
        monkeypatch.setattr(numerics, "spd_factorize", fail)
        with pytest.raises(engine.NonConcaveError):
            ctm.infer_docs(params, docs)
        # the whole stack at jitter 0, then 1e-6 doubling up to the 1e-2 cap
        assert len(tries) == 15 and all(m.shape == (2, 3, 3) for m in tries)
        shifts = [m[0, 0, 0] - tries[0][0, 0, 0] for m in tries[1:]]
        np.testing.assert_allclose(shifts, 1e-6 * 2.0 ** np.arange(14), rtol=1e-6)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_one_newton_call_per_refit_round(self, method, monkeypatch):
        params = make_ctm_params(23, 3, 12)
        real = optimize.newton
        for num_docs in (1, 9):
            docs = make_ctm_corpus(24, params, num_docs, tokens_per_doc=40)
            sizes = []
            monkeypatch.setattr(optimize, "newton", lambda f, x: sizes.append(len(x)) or real(f, x))
            results = ctm.infer_docs(params, docs, InferenceConfig(method))
            maps = [trace.records[-1].iteration for _, trace in results]
            # map m refits every document that takes m maps, in one call
            assert sizes == [sum(n >= m for n in maps) for m in range(1, max(maps) + 1)]

    def test_rejects_bad_terms_anywhere_in_the_batch(self):
        params = simple_params(2, 3)
        good = Document({0: 2, 1: 1})
        with pytest.raises(ValueError, match="outside the topic vocabulary"):
            ctm.infer_docs(params, [good, Document({3: 1})])
        topics = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
        zero = ctm.CtmParams(topics, np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="zero probability"):
            ctm.infer_docs(zero, [good, Document({2: 1})])

    def test_each_document_reports_the_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 1)
        params = make_ctm_params(23, 3, 12)
        docs = make_ctm_corpus(24, params, 3, tokens_per_doc=40) + [Document({})]
        results = ctm.infer_docs(params, docs, InferenceConfig())
        for _, trace in results[:3]:
            assert len(trace) == 1 and not trace.converged
        assert results[3][1].converged and len(results[3][1]) == 0

    def test_delta_ascent_converges_along_a_weak_prior_direction(self, monkeypatch):
        # A prior variance of 1e6 on a topic the document barely uses leaves
        # f almost flat there, so the trace term's curvature dominates.
        params = make_ctm_params(11, 5, 100, topic_conc=0.2)
        weak = ctm.CtmParams(params.topics, np.zeros(5), np.diag(np.logspace(0, 6, 5)))
        docs = make_ctm_corpus(4, params, 10, tokens_per_doc=60)
        calls = []
        newton = optimize.newton

        def counted(evaluate, x):
            count = [0]

            def tally(theta, rows):
                count[0] += 1
                return evaluate(theta, rows)

            out = newton(tally, x)
            calls.append((count[0], int(np.sum(~out.converged))))
            return out

        monkeypatch.setattr(optimize, "newton", counted)
        results = ctm.infer_docs(weak, docs, InferenceConfig(method="delta"))
        assert all(trace.converged for _, trace in results)
        assert sum(stuck for _, stuck in calls) == 0
        assert max(count for count, _ in calls) <= 50

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_refit_stopped_at_the_newton_cap_is_not_converged(self, method, monkeypatch):
        params = make_ctm_params(23, 3, 12)
        docs = make_ctm_corpus(24, params, 3, tokens_per_doc=40)
        newton = optimize.newton

        def always_capped(evaluate, x):
            return dataclasses.replace(newton(evaluate, x), converged=np.zeros(len(x), dtype=bool))

        want = ctm.infer_docs(params, docs, InferenceConfig(method=method))
        monkeypatch.setattr(optimize, "newton", always_capped)
        got = ctm.infer_docs(params, docs, InferenceConfig(method=method))
        for (_, want_trace), (_, got_trace) in zip(want, got):
            assert want_trace.converged and not got_trace.converged
            assert trace_rows(got_trace)[0] == trace_rows(want_trace)[0]


class TestPredictive:
    def test_single_topic_predicts_that_topic(self):
        topics = np.array([[0.2, 0.3, 0.5]])
        params = ctm.CtmParams(topics, np.zeros(1), np.eye(1))
        q = GaussianVariational(np.array([0.7]), np.eye(1))
        np.testing.assert_allclose(ctm.predictive_distribution(params, q),
                                   topics[0], atol=0)

    def test_saturated_mean_selects_one_topic(self):
        params = simple_params(2, 3)
        q = GaussianVariational(np.array([50.0, -50.0]), np.eye(2))
        np.testing.assert_allclose(ctm.predictive_distribution(params, q),
                                   params.topics[0], atol=1e-12)

    def test_uniform_mean_averages_topics(self):
        params = make_ctm_params(10, 4, 7)
        q = GaussianVariational(np.full(4, 1.3), np.eye(4))
        np.testing.assert_allclose(ctm.predictive_distribution(params, q),
                                   params.topics.mean(axis=0), atol=1e-12)

    def test_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(11)
        params = make_ctm_params(12, 3, 9)
        mu = rng.normal(size=3)
        p1 = ctm.predictive_distribution(params, GaussianVariational(mu, np.eye(3)))
        p2 = ctm.predictive_distribution(
            params, GaussianVariational(mu + 4.2, np.eye(3))
        )
        np.testing.assert_allclose(p1, p2, atol=1e-12)
        assert p1.sum() == pytest.approx(1.0, abs=1e-10)
        assert (p1 > 0.0).all()


class TestEmFit:
    def test_two_disjoint_term_groups_separate(self):
        docs = [Document({0: 5})] * 8 + [Document({1: 5})] * 8
        fit = ctm.em_fit(docs, 4, 2, em_iters=15, seed=0)
        # all observed mass sits on the first two terms
        assert (fit.params.topics[:, :2].sum(axis=1) > 0.99).all()
        state_first = fit.doc_states[0]
        pred = ctm.predictive_distribution(fit.params, state_first.q_theta)
        assert pred[0] > pred[2]

    def test_bound_per_word_nondecreasing_on_sampled_corpus(self):
        params = make_ctm_params(13, 3, 15)
        docs = make_ctm_corpus(14, params, 25, tokens_per_doc=30)
        fit = ctm.em_fit(docs, 15, 3, em_iters=8, seed=1)
        per_word = np.diff(fit.bounds) / fit.word_count
        assert (per_word >= -1e-4).all()
        assert fit.bounds[-1] > fit.bounds[0]

    def test_trace_records_match_bounds(self):
        docs = [Document({0: 2, 1: 1})] * 4
        fit = ctm.em_fit(docs, 3, 2, em_iters=3, seed=2)
        assert [r.objective for r in fit.trace.records] == fit.bounds
        assert [r.iteration for r in fit.trace.records] == [1, 2, 3]

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_packed_m_step_matches_a_per_document_loop(self, method):
        params = make_ctm_params(13, 3, 15)
        docs = make_ctm_corpus(14, params, 40, tokens_per_doc=30)
        docs = docs[:5] + [Document({})] + docs[5:]
        cfg = InferenceConfig(method=method)
        fit = ctm.em_fit(docs, 15, 3, cfg, em_iters=1, seed=3)

        # the seeded start of em_fit, then its E-step document by document
        topics = np.random.default_rng(3).dirichlet(np.ones(15), size=3)
        topics = np.maximum(topics, ctm._BETA_SMOOTH)
        topics /= topics.sum(axis=1, keepdims=True)
        start = ctm.CtmParams(topics, np.zeros(3), np.eye(3))
        states = [state for state, _ in ctm.infer_docs(start, docs, cfg)]
        bound = 0.0
        beta_acc = np.zeros((3, 15))
        means = np.array([state.q_theta.mu for state in states])
        for doc, state in zip(docs, states):
            ids = np.array([i for i, _ in doc.items()], dtype=int)
            counts = np.array([c for _, c in doc.items()], dtype=float)
            if ids.size:
                bound += state.objective - 0.5 * start.prior_log_det + 0.5 * 3
                beta_acc[:, ids] += (state.phi * counts[:, None]).T
        mu0 = means.mean(axis=0)
        cov_acc = np.zeros((3, 3))
        for state in states:
            dev = state.q_theta.mu - mu0
            cov_acc += state.q_theta.sigma + np.outer(dev, dev)
        topics = beta_acc + ctm._BETA_SMOOTH
        topics /= topics.sum(axis=1, keepdims=True)

        assert fit.bounds == [bound]
        assert np.array_equal(fit.params.topics, topics)
        assert np.array_equal(fit.params.prior_mean, mu0)
        sigma0 = cov_acc / len(docs) + ctm._COV_RIDGE * np.eye(3)
        assert np.array_equal(fit.params.prior_cov, sigma0)
        empty = fit.doc_states[5]
        assert np.array_equal(empty.q_theta.mu, start.prior_mean)
        assert np.array_equal(empty.q_theta.sigma, start.prior_cov)
        assert empty.phi.shape == (0, 3) and empty.objective == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ctm.em_fit([], 3, 2)
        with pytest.raises(ValueError):
            ctm.em_fit([Document({0: 1})], 3, 2)  # more topics than used terms
        with pytest.raises(ValueError):
            ctm.em_fit([Document({0: 1, 1: 1})], 3, 0)
        with pytest.raises(ValueError):
            ctm.em_fit([Document({0: 1, 1: 1})], 3, 2, em_iters=0)
        # the distinct-term count must not size an array by the largest id
        with pytest.raises(ValueError, match="outside the topic vocabulary"):
            ctm.em_fit([Document({0: 1, 10**12: 1})], 3, 2)


def seeded_start(vocab_size, num_topics, seed):
    """The parameters em_fit starts from."""
    topics = np.random.default_rng(seed).dirichlet(np.ones(vocab_size), size=num_topics)
    topics = np.maximum(topics, ctm._BETA_SMOOTH)
    return ctm.CtmParams(topics / topics.sum(axis=1, keepdims=True),
                         np.zeros(num_topics), np.eye(num_topics))


class TestTermLayout:
    """The (K, terms) layout against the (terms, K) formulas it replaced: equal
    bits while K < 8, where numpy sums a row of K left to right, and within
    rounding from K = 8 on, where it sums a contiguous row pairwise."""

    @staticmethod
    def doc_sums(rows, doc, num_docs):
        # the bincount over doc * K + k of a (terms, K) array
        width = rows.shape[1]
        idx = (doc[:, None] * width + np.arange(width)).ravel()
        return np.bincount(idx, rows.ravel(), num_docs * width).reshape(num_docs, width)

    @staticmethod
    def check(got, want, k):
        if k < 8:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [5, 12])
    def test_docs_match_the_terms_by_topics_formulas(self, k):
        rng = np.random.default_rng(30 + k)
        params = make_ctm_params(31, k, 40)
        docs = make_ctm_corpus(32, params, 9, tokens_per_doc=30)
        docs[4:4] = [Document({})]
        ids, counts, doc = pack_corpus(docs)
        rows = ctm._Docs(params, counts, ctm._log_beta(params, ids), doc, len(docs))
        mu = rng.normal(size=(len(docs), k))
        sigma = np.array([random_spd(rng, k) for _ in docs])
        log_det = rng.normal(size=len(docs))

        log_beta = np.log(params.topics.T[ids])
        phi = numerics.softmax(mu[doc] + log_beta, axis=1)
        stats = self.doc_sums(counts[:, None] * phi, doc, len(docs))
        entropy = -np.sum(phi * np.log(phi), axis=1)
        model = np.sum(phi * log_beta, axis=1)
        qz = self.doc_sums(counts[:, None] * np.stack([entropy, model], axis=1), doc, len(docs))
        value, _, pi = ctm._value_grad(mu, stats, params)
        curvature = np.einsum("dij,dij->d", ctm._hessian(pi, stats, params), sigma)
        monitor = value + 0.5 * (curvature + log_det) + qz[:, 0] + qz[:, 1]

        got_phi = rows.conjugate_update(mu, sigma)
        assert got_phi.shape == (k, len(ids)) and got_phi.flags.c_contiguous
        self.check(got_phi.T, phi, k)
        got_stats = rows.expected_stats(got_phi)
        assert got_stats.flags.c_contiguous
        self.check(got_stats, stats, k)
        self.check(rows.monitor(mu, sigma, got_phi, got_stats, log_det), monitor, k)

    @pytest.mark.parametrize("k", [5, 12])
    def test_em_topics_match_the_terms_by_topics_m_step(self, k):
        params = make_ctm_params(33, k, 40)
        docs = make_ctm_corpus(34, params, 12, tokens_per_doc=40)
        fit = ctm.em_fit(docs, 40, k, em_iters=1, seed=5)
        start = seeded_start(40, k, 5)
        ids, counts, doc = pack_corpus(docs)
        mu = np.array([state.q_theta.mu for state in fit.doc_states])
        phi = numerics.softmax(mu[doc] + np.log(start.topics.T[ids]), axis=1)
        self.check(np.concatenate([state.phi for state in fit.doc_states]), phi, k)
        # C order: numpy sums the contiguous topic rows of V = 40 pairwise
        beta = np.ascontiguousarray(self.doc_sums(counts[:, None] * phi, ids, 40).T)
        beta += ctm._BETA_SMOOTH
        self.check(fit.params.topics, beta / beta.sum(axis=1, keepdims=True), k)


class TestEmBound:
    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_each_bound_sums_closed_form_document_bounds(self, method):
        # From the second iteration on Sigma0 is no longer I, so the
        # -log|Sigma0|/2 of each document's prior term shows in the bound.
        k, vocab = 3, 15
        params = make_ctm_params(35, k, vocab)
        docs = make_ctm_corpus(36, params, 20, tokens_per_doc=30)
        docs[7:7] = [Document({})]
        cfg = InferenceConfig(method=method)
        fit = ctm.em_fit(docs, vocab, k, cfg, em_iters=3, seed=4)
        ids, counts, doc = pack_corpus(docs)
        prior = seeded_start(vocab, k, 4)
        for it in range(1, 4):
            step = ctm.em_fit(docs, vocab, k, cfg, em_iters=it, seed=4)
            assert step.bounds == fit.bounds[:it]
            phi_all = np.concatenate([state.phi for state in step.doc_states])
            log_beta = np.log(prior.topics.T[ids])
            _, log_det0 = np.linalg.slogdet(prior.prior_cov)
            total = 0.0
            for d, state in enumerate(step.doc_states):
                terms = doc == d
                c, phi, lb = counts[terms], phi_all[terms], log_beta[terms]
                mu, sigma = state.q_theta.mu, state.q_theta.sigma
                dev = mu - prior.prior_mean
                # E_q[log N(theta; mu0, Sigma0)] and the entropy of q(theta)
                e_prior = -0.5 * (k * np.log(2 * np.pi) + log_det0
                                  + np.trace(np.linalg.solve(prior.prior_cov, sigma))
                                  + dev @ np.linalg.solve(prior.prior_cov, dev))
                entropy = 0.5 * (np.linalg.slogdet(sigma)[1] + k * (1.0 + np.log(2 * np.pi)))
                # E_q[log p(z | theta)] to second order, then q(z)'s terms
                s = c @ phi
                pi = numerics.softmax(mu)
                e_z = s @ (mu - numerics.log_sum_exp(mu)) + 0.5 * s.sum() * np.sum(
                    (np.outer(pi, pi) - np.diag(pi)) * sigma)
                qz = c @ np.sum(phi * (lb - np.log(phi)), axis=1)
                total += e_prior + entropy + e_z + qz
            assert fit.bounds[it - 1] == pytest.approx(total, rel=1e-10, abs=1e-8)
            prior = step.params


class TestParamsValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ctm.CtmParams(np.array([[0.5, 0.4]]), np.zeros(1), np.eye(1))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ctm.CtmParams(np.array([[1.2, -0.2]]), np.zeros(1), np.eye(1))

    def test_prior_shape_must_match_topic_count(self):
        topics = np.full((2, 4), 0.25)
        with pytest.raises(ValueError):
            ctm.CtmParams(topics, np.zeros(3), np.eye(3))

    def test_prior_covariance_must_be_positive_definite(self):
        topics = np.full((2, 4), 0.25)
        for cov in (-np.eye(2), np.diag([1.0, 0.0])):
            with pytest.raises(ValueError, match="positive definite"):
                ctm.CtmParams(topics, np.zeros(2), cov)

    def test_prior_covariance_must_be_symmetric(self):
        topics = np.full((2, 4), 0.25)
        with pytest.raises(ValueError, match="symmetric"):
            ctm.CtmParams(topics, np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_keeps_prior_inverse_and_log_determinant(self):
        params = make_ctm_params(1, 3, 5)
        np.testing.assert_allclose(params.prior_inv @ params.prior_cov, np.eye(3), atol=1e-10)
        _, log_det = np.linalg.slogdet(params.prior_cov)
        assert params.prior_log_det == pytest.approx(log_det, abs=1e-10)
