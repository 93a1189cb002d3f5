"""Coordinate-ascent engine: curvature updates, the objective monitor, and
convergence control, exercised through small models with known posteriors."""

import numpy as np
import pytest

from ncvi import engine, numerics, unigram
from ncvi.engine import InferenceConfig
from ncvi.model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
)

from conftest import make_unigram_corpus, random_spd


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
        q = engine.laplace_step(model, model.expected_stats(None), np.zeros(1))
        assert q.mu[0] == pytest.approx(1.0, abs=1e-8)
        assert q.sigma[0, 0] == pytest.approx(1.0, abs=1e-8)

    def test_exact_on_random_quadratics(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 6):
            a = random_spd(rng, d)
            c = rng.normal(size=d)
            model = QuadraticModel(a, c)
            q = engine.laplace_step(model, model.expected_stats(None), np.zeros(d))
            np.testing.assert_allclose(q.mu, c, atol=1e-8)
            np.testing.assert_allclose(q.sigma, np.linalg.inv(a), atol=1e-8)

    def test_gradient_at_output_below_tolerance(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 4)
        c = rng.normal(size=4)
        model = QuadraticModel(a, c)
        q = engine.laplace_step(model, model.expected_stats(None), np.zeros(4))
        _, g = model.f_value_grad(q.mu, None)
        assert np.linalg.norm(g) <= 1e-6

    def test_jitter_rescues_flat_curvature(self):
        class FlatModel(QuadraticModel):
            def f_hessian(self, theta, stats):
                h = -np.asarray(self._a, dtype=float).copy()
                h[0, 0] = 0.0  # one exactly flat direction
                return h

        model = FlatModel(np.eye(2), np.zeros(2))
        diag = {}
        q = engine.laplace_step(
            model, model.expected_stats(None), np.zeros(2), diag=diag
        )
        assert diag["jitter_events"]
        numerics.spd_factorize(q.sigma)

    def test_jitter_budget_exhaustion_is_numerical_error(self):
        class ConcavelessModel(QuadraticModel):
            def f_hessian(self, theta, stats):
                return np.diag([1.0, -1.0])  # saddle no jitter in budget fixes

        model = ConcavelessModel(np.eye(2), np.zeros(2))
        with pytest.raises(engine.NonConcaveError):
            engine.laplace_step(model, model.expected_stats(None), np.zeros(2))


class TestDeltaStep:
    def test_matches_laplace_on_quadratics(self):
        rng = np.random.default_rng(2)
        for d in (1, 3, 5):
            a = random_spd(rng, d)
            c = rng.normal(size=d)
            model = QuadraticModel(a, c)
            stats = model.expected_stats(None)
            ql = engine.laplace_step(model, stats, np.zeros(d))
            qd = engine.delta_step(
                model, stats, GaussianVariational(np.zeros(d), np.eye(d))
            )
            np.testing.assert_allclose(qd.mu, ql.mu, atol=1e-8)
            np.testing.assert_allclose(qd.sigma, ql.sigma, atol=1e-8)

    def test_inner_objective_nondecreasing(self):
        docs, _ = make_unigram_corpus(3, vocab_size=4, num_docs=3)
        model = unigram.UnigramModel(4, docs)
        q0 = GaussianVariational(np.zeros(4), np.eye(4))
        qz = model.conjugate_update(q0)
        stats = model.expected_stats(qz)
        diag = {}
        engine.delta_step(model, stats, q0, diag=diag)
        inner = diag["delta_inner"]
        assert all(b - a >= -1e-10 for a, b in zip(inner, inner[1:]))


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
        q = engine.laplace_step(model, stats, np.zeros(3))
        got = engine.approx_objective(model, q, ConjugateVariational(None))
        value, _ = model.f_value_grad(q.mu, stats)
        hess = model.f_hessian(q.mu, stats)
        expect = value + 0.5 * (
            float(np.sum(hess * q.sigma)) + numerics.spd_factorize(q.sigma).log_det
        )
        assert got == pytest.approx(expect, abs=1e-10)

    def test_constant_across_iterations_without_data(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 3)
        model = QuadraticModel(a, rng.normal(size=3))
        q0 = GaussianVariational(np.zeros(3), np.eye(3))
        _, _, trace = engine.run_coordinate_ascent(
            model, None, q0, ConjugateVariational(None),
            InferenceConfig(max_outer_iters=6, conv_tol=1e-12),
        )
        objs = [r.objective for r in trace.records]
        assert len(objs) >= 2
        np.testing.assert_allclose(objs[1:], objs[1], atol=1e-9)

    def test_seeded_unigram_run_is_nondecreasing(self):
        for seed in (0, 1, 2):
            docs, _ = make_unigram_corpus(seed, vocab_size=5, num_docs=4)
            cfg = InferenceConfig(conv_tol=1e-12, max_outer_iters=20)
            _, _, trace = unigram.infer(docs, 5, cfg)
            objs = [r.objective for r in trace.records]
            diffs = np.diff(objs)
            assert (diffs >= -1e-6).all()

    def test_non_positive_definite_sigma_rejected(self):
        model = QuadraticModel(np.eye(2), np.zeros(2))
        q = GaussianVariational(np.zeros(2), np.diag([1.0, -1.0]))
        with pytest.raises(numerics.NotPositiveDefiniteError):
            engine.approx_objective(model, q, ConjugateVariational(None))


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

    def test_step_error_carries_partial_trace(self):
        class ExplodingModel(QuadraticModel):
            def __init__(self):
                super().__init__(np.eye(2), np.zeros(2))
                self.calls = 0

            def f_hessian(self, theta, stats):
                self.calls += 1
                if self.calls >= 2:
                    return np.diag([1.0, -1.0])  # turns indefinite mid run
                return -self._a

            def expected_stats(self, q_z):
                # nudge the mean each round so convergence never triggers
                return ExpectedStats(np.zeros(2))

            def conjugate_update(self, q_theta, data=None):
                return ConjugateVariational(None)

            def f_value_grad(self, theta, stats):
                d = theta - self._c - 1.0
                return float(-0.5 * d @ self._a @ d), -self._a @ d

        model = ExplodingModel()
        with pytest.raises(ArithmeticError) as exc:
            engine.run_coordinate_ascent(
                model,
                None,
                GaussianVariational(np.zeros(2), np.eye(2)),
                ConjugateVariational(None),
                InferenceConfig(conv_tol=1e-14, max_outer_iters=10),
            )
        assert hasattr(exc.value, "trace")
        assert len(exc.value.trace.records) >= 1


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
        with pytest.raises(ValueError):
            InferenceConfig(conv_tol=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(method="newton")
        with pytest.raises(ValueError):
            InferenceConfig(max_outer_iters=0)
