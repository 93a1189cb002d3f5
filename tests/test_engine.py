"""Coordinate-ascent engine: curvature updates, the objective monitor, and
convergence control, exercised through small models with known posteriors."""

import numpy as np
import pytest

from ncvi import blr, ctm, engine, numerics, optimize, unigram
from ncvi.engine import InferenceConfig
from ncvi.model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
    pack_corpus,
)

from conftest import (
    delta_profile,
    make_blr_problem,
    make_ctm_corpus,
    make_ctm_params,
    make_unigram_corpus,
    profile_hessian,
    random_spd,
    stopped_short,
    trust_exact_argmax,
)


class QuadraticModel(ModelContract):
    """Gaussian posterior in disguise: f(theta) = -(theta-c)' A (theta-c)/2.

    The exact posterior is N(c, inv(A)) regardless of the conjugate factor,
    so both curvature updates must recover it exactly.
    """

    def __init__(self, a, c):
        self._a = np.asarray(a, dtype=float)
        self._c = np.asarray(c, dtype=float)

    @property
    def dim(self):
        return self._c.size

    def f_value_grad(self, theta, stats):
        d = theta - self._c
        return float(-0.5 * d @ self._a @ d), -self._a @ d

    def f_hessian(self, theta, stats):
        return -self._a

    def trace_grad(self, theta, sigma, stats):
        return np.zeros_like(theta)

    def expected_stats(self, q_z):
        return ExpectedStats(np.zeros(self.dim))

    def conjugate_update(self, q_theta, data=None):
        return ConjugateVariational(None)


class TestLaplaceStep:
    def test_one_dimensional_unit_bowl(self):
        model = QuadraticModel(np.eye(1), np.array([1.0]))
        q, _, _ = engine.laplace_step(model, model.expected_stats(None), np.zeros(1))
        assert q.mu[0] == pytest.approx(1.0, abs=1e-8)
        assert q.sigma[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_exact_on_random_quadratics(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 6):
            a = random_spd(rng, d)
            c = rng.normal(size=d)
            model = QuadraticModel(a, c)
            q, _, _ = engine.laplace_step(model, model.expected_stats(None), np.zeros(d))
            np.testing.assert_allclose(q.mu, c, atol=1e-8)
            np.testing.assert_allclose(q.sigma, np.linalg.inv(a), atol=1e-8)

    def test_gradient_at_output_below_tolerance(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 4)
        c = rng.normal(size=4)
        model = QuadraticModel(a, c)
        q, _, _ = engine.laplace_step(model, model.expected_stats(None), np.zeros(4))
        _, g = model.f_value_grad(q.mu, None)
        assert np.linalg.norm(g) <= 1e-6

    def test_jitter_rescues_flat_curvature(self):
        class FlatModel(QuadraticModel):
            def f_hessian(self, theta, stats):
                h = -np.asarray(self._a, dtype=float).copy()
                h[0, 0] = 0.0  # one exactly flat direction
                return h

        class DiagonalFlatModel(FlatModel):
            delta_diagonal = True

        model = FlatModel(np.eye(2), np.zeros(2))
        q, log_det, _ = engine.laplace_step(model, model.expected_stats(None), np.zeros(2))
        ladder_jitter(q.sigma[0, 0])
        assert log_det == pytest.approx(numerics.spd_factorize(q.sigma).log_det, rel=1e-12)

        # the diagonal delta update jitters in the same loop
        model = DiagonalFlatModel(np.eye(2), np.zeros(2))
        q, log_det, _ = engine.delta_step(
            model, model.expected_stats(None), GaussianVariational(np.zeros(2), np.eye(2))
        )
        jitter = ladder_jitter(q.sigma[0, 0])
        assert q.sigma[0, 1] == q.sigma[1, 0] == 0.0
        assert log_det == pytest.approx(float(np.sum(np.log(np.diag(q.sigma)))), rel=1e-12)
        # the profile at the ascent's fixed jitter is the delta objective with
        # Tr{(H - jitter I) Sigma} at the jittered Sigma, formed densely
        value, _ = model.f_value_grad(q.mu, None)
        shifted = model.f_hessian(q.mu, None) - jitter * np.eye(2)
        dense = value + 0.5 * (float(np.sum(shifted * q.sigma)) + log_det)
        profile = delta_profile(model, model.expected_stats(None), jitter)
        assert profile(q.mu)[0] == pytest.approx(dense, rel=1e-12)

    def test_jitter_budget_exhaustion_is_numerical_error(self):
        class ConcavelessModel(QuadraticModel):
            def f_hessian(self, theta, stats):
                return np.diag([1.0, -1.0])  # saddle no jitter in budget fixes

        class DiagonalConcavelessModel(ConcavelessModel):
            delta_diagonal = True

        model = ConcavelessModel(np.eye(2), np.zeros(2))
        with pytest.raises(engine.NonConcaveError):
            engine.laplace_step(model, model.expected_stats(None), np.zeros(2))
        model = DiagonalConcavelessModel(np.eye(2), np.zeros(2))
        q0 = GaussianVariational(np.zeros(2), np.eye(2))
        with pytest.raises(engine.NonConcaveError):
            engine.delta_step(model, model.expected_stats(None), q0)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_overflowed_curvature_fails_at_once(self, method):
        class OverflowModel(QuadraticModel):
            def f_hessian(self, theta, stats):
                return np.array([[-np.inf, 0.0], [0.0, -1.0]])

        model = OverflowModel(np.eye(2), np.zeros(2))
        calls = []
        real = model.covariance
        model.covariance = lambda *args: calls.append(args) or real(*args)
        q0 = GaussianVariational(np.ones(2), np.eye(2))
        with pytest.raises(numerics.NonFiniteMatrixError, match="overflowed"):
            if method == "laplace":
                engine.laplace_step(model, model.expected_stats(None), q0.mu)
            else:
                engine.delta_step(model, model.expected_stats(None), q0)
        assert len(calls) <= 1  # no jitter retries


def ladder_jitter(sigma00):
    """The jitter 1e-6 * 2^k on a zero curvature that gave Sigma_00 = 1/jitter."""
    k = round(float(np.log2(1.0 / (sigma00 * engine._JITTER_INIT))))
    jitter = engine._JITTER_INIT * 2.0 ** k
    assert 0 <= k and jitter <= engine._JITTER_MAX
    assert 1.0 / sigma00 == pytest.approx(jitter, rel=1e-12)
    return jitter


class TestDeltaStep:
    def test_matches_laplace_on_quadratics(self):
        rng = np.random.default_rng(2)
        for d in (1, 3, 5):
            a = random_spd(rng, d)
            c = rng.normal(size=d)
            model = QuadraticModel(a, c)
            stats = model.expected_stats(None)
            ql, _, _ = engine.laplace_step(model, stats, np.zeros(d))
            qd, _, _ = engine.delta_step(
                model, stats, GaussianVariational(np.zeros(d), np.eye(d))
            )
            np.testing.assert_allclose(qd.mu, ql.mu, atol=1e-8)
            np.testing.assert_allclose(qd.sigma, ql.sigma, atol=1e-8)

    def test_inner_objective_nondecreasing(self):
        # the refit climbs the profile g = f + (log|Sigma(mu)| - dim)/2, and
        # the returned Sigma and log|Sigma| are those of g at the returned mean
        docs, _ = make_unigram_corpus(3, vocab_size=4, num_docs=3)
        model = unigram.UnigramModel(4, docs)
        q0 = GaussianVariational(np.zeros(4), np.eye(4))
        stats = model.expected_stats(model.conjugate_update(q0))
        q, log_det, converged = engine.delta_step(model, stats, q0)
        profile = delta_profile(model, stats, 0.0)
        assert converged and profile(q.mu)[0] >= profile(q0.mu)[0]
        assert np.linalg.norm(profile(q.mu)[1]) <= 1e-6
        dense = q.sigma @ np.eye(4)
        np.testing.assert_allclose(dense, np.linalg.inv(-model.f_hessian(q.mu, stats)), rtol=1e-10)
        assert log_det == pytest.approx(np.linalg.slogdet(dense)[1], rel=1e-10)
        value, _ = model.f_value_grad(q.mu, stats)
        assert profile(q.mu)[0] == pytest.approx(value + 0.5 * (log_det - 4), rel=1e-12)

    @pytest.mark.parametrize("problem", ["blr", "unigram"])
    def test_matches_the_alternation_reference(self, problem):
        model, stats = delta_problem(problem)
        q0 = GaussianVariational(np.zeros(model.dim), np.eye(model.dim))
        q, _, converged = engine.delta_step(model, stats, q0)
        mu, sigma = delta_alternation(model, stats, q0)
        # one ascent to grad_tol against alternation run to a 1e-12 change:
        # 3.2e-8 relative measured, on the alternation's own fixed point
        assert converged
        np.testing.assert_allclose(q.mu, mu, rtol=1e-6, atol=0)
        np.testing.assert_allclose(q.sigma @ np.eye(model.dim), sigma, rtol=1e-6, atol=0)


def delta_problem(problem):
    """A model with a fixed q(z), for the delta refit."""
    if problem == "blr":
        instances, _ = make_blr_problem(33, 200, 6)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(6))
        return model, model.expected_stats()
    if problem == "ctm":
        params = make_ctm_params(44, 4, 30)
        model = ctm.CtmDocModel(params, make_ctm_corpus(45, params, 1)[0])
    else:
        docs, _ = make_unigram_corpus(43, vocab_size=8, num_docs=5)
        model = unigram.UnigramModel(8, docs)
    q0 = GaussianVariational(np.zeros(model.dim), np.eye(model.dim))
    return model, model.expected_stats(model.conjugate_update(q0))


def delta_alternation(model, stats, q0):
    """The delta update as the paper alternates it: a Newton ascent of
    f + Tr{H Sigma}/2 in mu at fixed Sigma, stepping on f's dense curvature,
    then the closed-form Sigma = (-H)^{-1}, until the delta objective
    f + Tr{H Sigma}/2 + log|Sigma|/2 changes by less than 1e-12."""
    mu, sigma, prev = q0.mu, q0.sigma, -np.inf
    while True:
        def objective(theta, sigma=sigma):
            value, grad = model.f_value_grad(theta, stats)
            value += 0.5 * float(np.sum(model.f_hessian(theta, stats) * sigma))
            grad = grad + 0.5 * model.trace_grad(theta, sigma, stats)
            return value, grad, np.linalg.solve(-model.f_hessian(theta, stats), grad)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize, "_GRAD_TOL", 1e-12)
            mu = optimize.maximize(objective, mu).argmax
        sigma = np.linalg.inv(-model.f_hessian(mu, stats))
        value = objective(mu)[0] + 0.5 * np.linalg.slogdet(sigma)[1]
        if value - prev < 1e-12:
            return mu, sigma
        prev = value


class TestTrustRegionOracle:
    """The Newton ascent lands where trust-exact does, within 1e-7."""

    def test_blr_laplace_mode(self):
        instances, _ = make_blr_problem(30, 200, 6)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(6))
        q = blr.fit(instances, method="laplace")
        want = trust_exact_argmax(model.f_value_grad, model.f_hessian, np.zeros(6))
        np.testing.assert_allclose(q.mu, want, rtol=0, atol=1e-7)

    def test_unigram_laplace_mode(self):
        docs, _ = make_unigram_corpus(31, vocab_size=40, num_docs=20, tokens_per_doc=100)
        model = unigram.UnigramModel(40, docs)
        q0 = GaussianVariational(np.zeros(40), np.eye(40))
        stats = model.expected_stats(model.conjugate_update(q0))
        q, _, _ = engine.laplace_step(model, stats, q0.mu)
        want = trust_exact_argmax(
            lambda t: model.f_value_grad(t, stats), lambda t: model.f_hessian(t, stats), q0.mu
        )
        np.testing.assert_allclose(q.mu, want, rtol=0, atol=1e-7)

    def test_blr_delta_profile_mode(self):
        instances, _ = make_blr_problem(33, 200, 6)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(6))
        q = blr.fit(instances, method="delta")
        profile = delta_profile(model, model.expected_stats(), 0.0)
        want = trust_exact_argmax(
            lambda t: profile(t)[:2], lambda t: profile_hessian(profile, t), np.zeros(6)
        )
        np.testing.assert_allclose(q.mu, want, rtol=0, atol=1e-7)


class TestDeltaProfile:
    """g = f + (log|Sigma(mu)| - dim)/2 and its envelope gradient
    grad f + trace_grad(mu, Sigma(mu))/2, for a dense (BLR), diagonal (CTM)
    and diagonal-plus-rank-one (unigram) Sigma, unshifted and shifted."""

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    @pytest.mark.parametrize("problem", ["blr", "ctm", "unigram"])
    def test_gradient_matches_finite_differences(self, problem, shift):
        model, stats = delta_problem(problem)
        theta, _, _ = engine.laplace_step(model, stats, np.zeros(model.dim))
        theta = theta.mu + np.random.default_rng(46).normal(scale=0.05, size=model.dim)
        profile = delta_profile(model, stats, shift)
        value, grad, *_ = profile(theta)
        assert np.isfinite(value)
        fd = numerics.finite_diff_gradient(lambda t: profile(t)[0], theta)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_undefined_trial_is_rejected(self):
        # where f's negated curvature is not positive definite, g has no Sigma
        docs, _ = make_unigram_corpus(1, 100, 50, tokens_per_doc=200)
        model = unigram.UnigramModel(100, docs)
        q0 = GaussianVariational(np.zeros(100), np.eye(100))
        stats = model.expected_stats(model.conjugate_update(q0))
        value, *_ = delta_profile(model, stats, 0.0)(q0.mu)
        assert value == -np.inf

    @pytest.mark.parametrize("problem", ["ctm", "unigram"])
    def test_refit_sigma_is_the_models_covariance_at_the_argmax(self, problem):
        # taken from the evaluation that accepted the mean, to the bit
        model, stats = delta_problem(problem)
        mu, sigma, log_det, _ = engine._refit(
            engine._ModelRows(model), [stats], [np.zeros(model.dim)], "delta")
        want, want_log_det = model.covariance(mu[0], stats, 0.0, model.delta_diagonal)
        eye = np.eye(model.dim)  # unigram's Sigma is read through `@`
        assert np.array_equal(sigma[0] @ eye, want @ eye) and log_det[0] == want_log_det


class TestEtaExpectation:
    def test_exact_form_preferred_when_model_provides_it(self):
        docs, _ = make_unigram_corpus(4, vocab_size=3, num_docs=2)
        model = unigram.UnigramModel(3, docs)
        q = GaussianVariational(np.zeros(3), np.eye(3))
        exact = model.eta_expectation(q)
        np.testing.assert_allclose(exact, np.full(3, np.exp(0.5)), atol=1e-12)


class TestApproxObjective:
    def test_laplace_point_reduces_to_curvature_form(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 3)
        c = rng.normal(size=3)
        model = QuadraticModel(a, c)
        stats = model.expected_stats(None)
        q, log_det, _ = engine.laplace_step(model, stats, np.zeros(3))
        got = engine.approx_objective(model, q, ConjugateVariational(None), stats, log_det)
        value, _ = model.f_value_grad(q.mu, stats)
        hess = model.f_hessian(q.mu, stats)
        expect = value + 0.5 * (
            float(np.sum(hess * q.sigma)) + numerics.spd_factorize(q.sigma).log_det
        )
        assert got == pytest.approx(expect, abs=1e-10)

    def test_constant_across_iterations_without_data(self, monkeypatch):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 3)
        model = QuadraticModel(a, rng.normal(size=3))
        q0 = GaussianVariational(np.zeros(3), np.eye(3))
        objs = []
        for cap in (1, 2, 3):
            monkeypatch.setattr(InferenceConfig, "max_outer_iters", cap)
            _, _, trace = engine.run_coordinate_ascent(
                model, None, q0, ConjugateVariational(None), InferenceConfig(conv_tol=1e-12)
            )
            objs.append(trace.records[-1].objective)
        np.testing.assert_allclose(objs, objs[0], atol=1e-9)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    @pytest.mark.parametrize("problem", ["blr", "unigram", "ctm"])
    def test_trace_objectives_match_the_monitor_from_sigma(self, monkeypatch, problem, method):
        # each trace objective, built from the refit's own log|Sigma|, equals
        # approx_objective with log|Sigma| factorized from Sigma afresh: for
        # BLR, whose tasks are scored packed, summed over each round's tasks
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 4)
        cfg = InferenceConfig(method=method, conv_tol=1e-12)
        real = engine.approx_objective
        calls = []
        if problem == "blr":
            tasks = [make_blr_problem(seed, 40, 3)[0] for seed in (40, 41, 42)]
            real_fit = blr._fit

            def spy_fit(rows, cfg):
                out = real_fit(rows, cfg)
                models = [blr.BlrModel(task, rows.prior) for task in tasks]
                calls.extend((m, q, ConjugateVariational(None)) for m, q in zip(models, out[0]))
                return out

            monkeypatch.setattr(blr, "_fit", spy_fit)
            trace = blr.fit_hierarchical(tasks, cfg=cfg, em_iters=3).trace
        else:
            def spy(model, q_theta, q_z, stats, log_det):
                calls.append((model, q_theta, q_z, real(model, q_theta, q_z, stats, log_det)))
                return calls[-1][3]

            monkeypatch.setattr(engine, "approx_objective", spy)
            if problem == "unigram":
                docs, _ = make_unigram_corpus(43, vocab_size=8, num_docs=5)
                model = unigram.UnigramModel(8, docs)
            else:
                params = make_ctm_params(44, 4, 30)
                model = ctm.CtmDocModel(params, make_ctm_corpus(45, params, 1)[0])
            q0 = GaussianVariational(np.zeros(model.dim), np.eye(model.dim))
            qz0 = model.conjugate_update(q0)
            _, _, trace = engine.run_coordinate_ascent(model, None, q0, qz0, cfg)
            # the loop scores every point it might keep; a record is the kept one's
            values = [c[3] for c in calls]
            calls = [calls[values.index(r.objective)][:3] for r in trace.records]
        per_record = len(calls) // len(trace)
        assert len(trace) >= 2 and per_record * len(trace) == len(calls)
        for i, record in enumerate(trace.records):
            want = sum(
                real(model, q, q_z, model.expected_stats(q_z),
                     numerics.spd_factorize(q.sigma @ np.eye(q.dim)).log_det)
                for model, q, q_z in calls[i * per_record:(i + 1) * per_record]
            )
            assert record.objective == pytest.approx(want, rel=1e-10, abs=0)

    def test_seeded_unigram_run_is_nondecreasing(self, monkeypatch):
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 20)
        for seed in (0, 1, 2):
            docs, _ = make_unigram_corpus(seed, vocab_size=5, num_docs=4)
            cfg = InferenceConfig(conv_tol=1e-12)
            _, _, trace = unigram.infer(docs, 5, cfg)
            objs = [r.objective for r in trace.records]
            diffs = np.diff(objs)
            assert (diffs >= -1e-6).all()



class TestRunCoordinateAscent:
    def test_quadratic_posterior_reached_in_first_iteration(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 3)
        c = rng.normal(size=3)
        model = QuadraticModel(a, c)
        q0 = GaussianVariational(np.zeros(3), np.eye(3))
        q, _, trace = engine.run_coordinate_ascent(
            model, None, q0, ConjugateVariational(None)
        )
        assert trace.converged
        assert len(trace.records) <= 2
        np.testing.assert_allclose(q.mu, c, atol=1e-8)
        np.testing.assert_allclose(q.sigma, np.linalg.inv(a), atol=1e-8)

    def test_symmetric_unigram_document(self):
        doc = Document({0: 5, 1: 5})
        q, _, trace = unigram.infer([doc], 2)
        assert trace.converged
        assert abs(q.mu[0] - q.mu[1]) <= 1e-6

    def test_restart_from_converged_point_is_self_consistent(self):
        docs, _ = make_unigram_corpus(9, vocab_size=3, num_docs=4)
        model = unigram.UnigramModel(3, docs)
        q0 = GaussianVariational(np.zeros(3), np.eye(3))
        q1, qz1, t1 = engine.run_coordinate_ascent(
            model, None, q0, model.conjugate_update(q0)
        )
        q2, _, t2 = engine.run_coordinate_ascent(model, None, q1, qz1)
        assert abs(t2.records[-1].objective - t1.records[-1].objective) <= 1e-4

    def test_deterministic_trace(self):
        docs, _ = make_unigram_corpus(10, vocab_size=4, num_docs=3)
        runs = []
        for _ in range(2):
            _, _, trace = unigram.infer(docs, 4)
            runs.append([(r.iteration, r.objective, r.mean_change) for r in trace.records])
        assert runs[0] == runs[1]

    def test_convergence_flag_reflects_final_mean_change(self):
        docs, _ = make_unigram_corpus(11, vocab_size=4, num_docs=3)
        cfg = InferenceConfig(conv_tol=1e-4)
        _, _, trace = unigram.infer(docs, 4, cfg)
        assert trace.converged
        assert trace.records[-1].mean_change < cfg.conv_tol

    def test_one_laplace_iteration_factorizes_once(self, monkeypatch):
        # one covariance per laplace iteration, whose log|Sigma| the monitor
        # reuses; unigram's is O(V) and factorizes nothing, CTM's dense
        # default once.  A delta iteration calls none outside the ascent
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 1)
        docs, _ = make_unigram_corpus(12, vocab_size=6, num_docs=4)
        params = make_ctm_params(13, 4, 30)
        problems = [
            (unigram.UnigramModel(6, docs), 0),
            (ctm.CtmDocModel(params, make_ctm_corpus(14, params, 1)[0]), 1),
        ]
        factorizations, covariances, in_ascent = [], [], []
        real_factorize, real_newton = numerics.spd_factorize, optimize.newton

        def ascent(*args, **kwargs):
            # Newton directions inside the ascent may factorize; not counted
            in_ascent.append(True)
            try:
                return real_newton(*args, **kwargs)
            finally:
                in_ascent.pop()

        def factorize(m):
            if not in_ascent:
                factorizations.append(m)
            return real_factorize(m)

        def counted(real):
            def covariance(*args):
                if not in_ascent:
                    covariances.append(args)
                return real(*args)

            return covariance

        monkeypatch.setattr(numerics, "spd_factorize", factorize)
        monkeypatch.setattr(optimize, "newton", ascent)
        for model, want in problems:
            monkeypatch.setattr(model, "covariance", counted(model.covariance))
            q0 = GaussianVariational(np.zeros(model.dim), np.eye(model.dim))
            for method, calls, factors in (("laplace", 1, want), ("delta", 0, 0)):
                covariances.clear()
                factorizations.clear()
                engine.run_coordinate_ascent(
                    model, None, q0, model.conjugate_update(q0), InferenceConfig(method)
                )
                assert len(covariances) == calls
                assert len(factorizations) == factors

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_refit_stopped_short_is_not_converged(self, monkeypatch, method):
        monkeypatch.setattr(optimize, "newton", stopped_short(optimize.newton))
        model = QuadraticModel(np.eye(2), np.ones(2))
        q0 = GaussianVariational(np.zeros(2), np.eye(2))
        cfg = InferenceConfig(method=method)
        _, _, trace = engine.run_coordinate_ascent(model, None, q0, ConjugateVariational(None), cfg)
        # the mean test stopped the loop, but the run is not converged
        assert len(trace) < cfg.max_outer_iters
        assert trace.records[-1].mean_change < cfg.conv_tol
        assert not trace.converged

    def test_step_error_carries_partial_trace(self, monkeypatch):
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 10)
        class ExplodingModel(QuadraticModel):
            def __init__(self):
                super().__init__(np.eye(2), np.zeros(2))
                self.rounds = 0

            def f_hessian(self, theta, stats):
                if self.rounds >= 4:
                    return np.diag([1.0, -1.0])  # turns indefinite mid run
                return -self._a

            def expected_stats(self, q_z):
                return ExpectedStats(np.full(2, float(self.rounds)))

            def conjugate_update(self, q_theta, data=None):
                # closes a map: the first cycle (two maps, then the
                # stabilizing map, whose q(z) update comes first) counts four
                # rounds and is recorded before the curvature turns indefinite
                self.rounds += 1
                return ConjugateVariational(None)

            def f_value_grad(self, theta, stats):
                # the mode moves with the statistics, so the mean never settles
                d = theta - self._c - 1.0 - stats.values
                return float(-0.5 * d @ self._a @ d), -self._a @ d

        model = ExplodingModel()
        with pytest.raises(ArithmeticError) as exc:
            engine.run_coordinate_ascent(
                model,
                None,
                GaussianVariational(np.zeros(2), np.eye(2)),
                ConjugateVariational(None),
                InferenceConfig(conv_tol=1e-14),
            )
        assert hasattr(exc.value, "trace")
        assert len(exc.value.trace.records) >= 1


def squarem_problem(problem):
    """A unigram corpus as one `_ModelRows` row, or CTM documents as `_Docs`
    rows: the rows, their starting means and statistics, and a runner of the
    engine's outer loop under a config."""
    if problem == "unigram":
        docs, _ = make_unigram_corpus(50, 12, 6, tokens_per_doc=40)
        model = unigram.UnigramModel(12, docs)
        rows = engine._ModelRows(model)
        start = np.zeros((1, 12))
        stats = [model.expected_stats(model.conjugate_update(
            GaussianVariational(start[0], np.eye(12))))]

        def run(cfg):
            q, _, trace = unigram.infer(docs, 12, cfg)
            return q.mu[None], [trace]
    else:
        params = make_ctm_params(31, 4, 40)
        docs = make_ctm_corpus(32, params, num_docs=8, tokens_per_doc=50)
        ids, counts, doc = pack_corpus(docs)
        rows = ctm._Docs(params, counts, ctm._log_beta(params, ids), doc, len(docs))
        start = np.zeros((len(docs), 4))
        stats = rows.expected_stats(rows.conjugate_update(start, None))

        def run(cfg):
            results = ctm.infer_docs(params, docs, cfg)
            return np.array([s.q_theta.mu for s, _ in results]), [t for _, t in results]
    return rows, start, stats, run


def plain_path(rows, mu, stats, method, maps):
    """The plain alternation, one `engine._map` after another: the means and
    monitor of every map."""
    path = []
    for _ in range(maps):
        point = engine._scored(rows, *engine._map(rows, stats, mu, method))
        mu, stats = point.mu, point.stats
        path.append((mu, point.objective))
    return path


class TestSquarem:
    @pytest.mark.parametrize("method", ["laplace", "delta"])
    @pytest.mark.parametrize("problem", ["unigram", "ctm"])
    @pytest.mark.parametrize("conv_tol", [1e-4, 1e-6])
    def test_agrees_with_the_plain_fixed_point(self, problem, method, conv_tol):
        # the plain alternation run until no mean moves 1e-9 in one map is
        # the reference; the extrapolated loop stops within 10 conv_tol of it
        rows, start, stats, run = squarem_problem(problem)
        path = plain_path(rows, start, stats, method, 200)
        moves = [np.abs(b[0] - a[0]).max() for a, b in zip(path, path[1:])]
        reference = path[1 + next(i for i, m in enumerate(moves) if m < 1e-9)][0]
        mu, traces = run(InferenceConfig(method=method, conv_tol=conv_tol))
        assert all(t.converged for t in traces)
        np.testing.assert_allclose(mu, reference, rtol=0, atol=10 * conv_tol)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    @pytest.mark.parametrize("problem", ["unigram", "ctm"])
    def test_rejected_extrapolation_keeps_the_plain_point(self, problem, method, monkeypatch):
        # with every stabilizing map failing, each cycle keeps its second
        # plain map's point and Sigma: the records are the plain path's at
        # maps 2, 4, 6, ..., filed at maps 3, 6, 9, ..., and still climb
        rows, start, stats, run = squarem_problem(problem)
        failed = []

        def trial(rows, x, sigma, method):
            failed.append(len(x))
            raise FloatingPointError("trial fails")

        monkeypatch.setattr(engine, "_trial", trial)
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 30)
        cfg = InferenceConfig(method=method, conv_tol=1e-6)
        _, traces = run(cfg)
        path = plain_path(rows, start, stats, method, 20)
        assert failed
        for d, trace in enumerate(traces):
            cycles = [r for r in trace.records if r.iteration % 3 == 0]
            assert len(cycles) >= 2
            for r in cycles:
                assert r.objective == path[2 * r.iteration // 3 - 1][1][d]
            assert np.all(np.diff([r.objective for r in trace.records]) >= -1e-9)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_records_climb_where_a_trial_was_rejected(self, method, monkeypatch):
        # the documents of test_06: some stabilized points are not kept, and
        # none shows as a drop in the record that follows
        params = make_ctm_params(7, num_topics=5, vocab_size=50)
        docs = make_ctm_corpus(7, params, num_docs=20, tokens_per_doc=60)
        real, rejected = engine._squarem, []

        def squarem(rows, path, plain, change, reach, method):
            out = real(rows, path, plain, change, reach, method)
            rejected.append(int(np.sum(np.all(out[0].mu == plain.mu, axis=1))))
            return out

        monkeypatch.setattr(engine, "_squarem", squarem)
        results = ctm.infer_docs(params, docs, InferenceConfig(method=method))
        assert sum(rejected) >= 1
        for _, trace in results:
            assert np.all(np.diff([r.objective for r in trace.records]) >= -1e-6)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, 6.0, -800.0, 800.0])
    def test_failed_trial_gives_no_point(self, x0):
        # a trial from a non-finite mean, from one where f is -inf (newton's
        # non-finite start), or whose q(z) update under- or overflows
        # (unigram's rates exp(mu + sigma/2)) is a fallback, not an error
        class WalledModel(QuadraticModel):
            def f_value_grad(self, theta, stats):
                if theta[0] > 5.0:
                    return -np.inf, np.full_like(theta, np.nan)
                return super().f_value_grad(theta, stats)

        if abs(x0) == 800.0:
            model = unigram.UnigramModel(2, [Document({0: 3})])
            x = np.array([[0.0, x0]])
        else:
            model, x = WalledModel(np.eye(2), np.zeros(2)), np.array([[x0, 0.0]])
        rows = engine._ModelRows(model)
        assert engine._stabilize(rows, x, [np.eye(2)], "laplace") == []

    def test_extrapolation_is_exact_on_a_linear_map(self):
        # q(z)'s statistics are mu/2 + 1, so the map is mu -> mu/2 + 1 with
        # fixed point 2; the first cycle's reach of 1 leaves it plain (0, 1,
        # 1.5, 1.75), and the second extrapolates from 1.75, 1.875 and
        # 1.9375 with alpha = -2 onto 2 itself, where the stabilizing map
        # moves the mean by 0
        class LinearMapModel(QuadraticModel):
            def expected_stats(self, q_z):
                return ExpectedStats(0.5 * q_z.phi + 1.0)

            def conjugate_update(self, q_theta, data=None):
                return ConjugateVariational(q_theta.mu.copy())

            def f_value_grad(self, theta, stats):
                d = theta - stats.values
                return float(-0.5 * d @ d), -d

        model = LinearMapModel(np.eye(1), np.zeros(1))
        q0 = GaussianVariational(np.zeros(1), np.eye(1))
        q, _, trace = engine.run_coordinate_ascent(
            model, None, q0, model.conjugate_update(q0), InferenceConfig(conv_tol=1e-12)
        )
        assert [r.iteration for r in trace.records] == [3, 6]
        assert [r.mean_change for r in trace.records] == [0.25, 0.0]
        assert q.mu[0] == 2.0 and trace.converged

    def test_cycle_writes_one_record_and_counts_maps(self):
        docs, _ = make_unigram_corpus(51, 20, 8, tokens_per_doc=30)
        _, _, trace = unigram.infer(docs, 20, InferenceConfig(conv_tol=1e-8))
        iters = [r.iteration for r in trace.records]
        # one record per three-map cycle, and one where the mean test stops
        assert iters[:-1] == list(range(3, 3 * len(iters) - 2, 3))
        assert iters[-1] - iters[-2] in (1, 2, 3)
        assert trace.converged and trace.records[-1].mean_change < 1e-8

    def test_map_cap_keeps_its_meaning(self, monkeypatch):
        docs, _ = make_unigram_corpus(51, 20, 8, tokens_per_doc=30)
        for cap in (1, 2, 4, 5):
            monkeypatch.setattr(InferenceConfig, "max_outer_iters", cap)
            _, _, trace = unigram.infer(docs, 20, InferenceConfig(conv_tol=1e-12))
            assert trace.records[-1].iteration == cap and not trace.converged


class TestTrace:
    def test_iterations_strictly_increasing_enforced(self):
        trace = engine.InferenceTrace()
        trace.append(engine.TraceRecord(1, 0.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            trace.append(engine.TraceRecord(1, 0.1, 0.5, 0.1))

    def test_csv_layout(self, tmp_path):
        trace = engine.InferenceTrace()
        trace.append(engine.TraceRecord(1, -1.5, 0.25, 0.001))
        trace.append(engine.TraceRecord(2, -1.25, 0.1, 0.002))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,objective,mean_change,seconds"
        assert lines[1].startswith("1,-1.5,0.25,")
        assert len(lines) == 3

    def test_config_validation(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match="conv_tol"):
                InferenceConfig(conv_tol=tol)
        with pytest.raises(ValueError):
            InferenceConfig(method="newton")
