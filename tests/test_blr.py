"""Logistic regression with Gaussian coefficient priors, flat and shared."""

import numpy as np
import pytest

from ncvi import blr, numerics
from ncvi.engine import InferenceConfig
from ncvi.model import GaussianVariational, LabeledInstance

from conftest import make_blr_problem, make_instance, random_spd


class TestExponent:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = int(rng.integers(1, 5))
            instances, _ = make_blr_problem(int(rng.integers(1e6)), 12, p)
            model = blr.BlrModel(instances, blr.BlrPrior.standard(p))
            theta = rng.uniform(-1.5, 1.5, size=p)
            _, grad = model.f_value_grad(theta)
            fd = numerics.finite_diff_gradient(
                lambda t: model.f_value_grad(t)[0], theta, h=1e-6
            )
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        instances, _ = make_blr_problem(2, 10, 3)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(3))
        theta = rng.uniform(-1.0, 1.0, size=3)
        hess = model.f_hessian(theta)
        for i in range(3):
            row = numerics.finite_diff_gradient(
                lambda t: model.f_value_grad(t)[1][i], theta
            )
            np.testing.assert_allclose(hess[i], row, rtol=1e-4, atol=1e-6)

    def test_trace_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        instances, _ = make_blr_problem(4, 8, 3)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(3))
        sigma = random_spd(rng, 3, spread=(0.1, 1.0))
        theta = rng.uniform(-1.0, 1.0, size=3)

        def weighted_curvature(t):
            return float(np.sum(model.f_hessian(t) * sigma))

        fd = numerics.finite_diff_gradient(weighted_curvature, theta)
        np.testing.assert_allclose(model.trace_grad(theta, sigma), fd,
                                   rtol=1e-3, atol=1e-5)

    def test_hessian_always_negative_definite(self):
        rng = np.random.default_rng(4)
        instances, _ = make_blr_problem(5, 6, 2)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(2))
        for _ in range(5):
            hess = model.f_hessian(rng.normal(scale=3.0, size=2))
            assert (np.linalg.eigvalsh(hess) < 0.0).all()


class TestFlatFit:
    def test_uninformative_instance_returns_prior(self):
        # a zero covariate vector contributes a constant likelihood
        prior = blr.BlrPrior(np.array([0.4, -0.7]), np.array([[0.8, 0.1], [0.1, 0.5]]))
        q = blr.fit([make_instance([0.0, 0.0], 1)], prior)
        np.testing.assert_allclose(q.mu, prior.mean, atol=1e-10)
        np.testing.assert_allclose(q.sigma, prior.cov, atol=1e-10)

    def test_one_dimensional_grid_oracle(self):
        instances = [
            make_instance([1.0], 1),
            make_instance([2.0], 1),
            make_instance([1.5], 0),
            make_instance([-0.5], 0),
        ]
        model = blr.BlrModel(instances, blr.BlrPrior.standard(1))
        grid = np.arange(-5.0, 5.0, 1e-4)
        values = np.array([model.f_value_grad(np.array([t]))[0] for t in grid])
        t_star = grid[int(np.argmax(values))]
        q = blr.fit(instances)
        assert abs(q.mu[0] - t_star) <= 2e-4
        curvature = model.f_hessian(q.mu)[0, 0]
        assert abs(q.sigma[0, 0] - (-1.0 / curvature)) <= 1e-6

    def test_label_swap_negates_posterior_mean(self):
        instances, _ = make_blr_problem(6, 20, 3)
        swapped = [LabeledInstance(inst.covariates, (inst.z[1], inst.z[0]))
                   for inst in instances]
        q1 = blr.fit(instances)
        q2 = blr.fit(swapped)
        np.testing.assert_allclose(q2.mu, -q1.mu, atol=1e-8)
        np.testing.assert_allclose(q2.sigma, q1.sigma, atol=1e-8)

    def test_data_contracts_the_posterior(self):
        instances, _ = make_blr_problem(7, 40, 3)
        q = blr.fit(instances)
        assert np.trace(q.sigma) < np.trace(np.eye(3))

    def test_no_jitter_needed(self):
        # logistic curvature plus a proper prior is always strictly concave
        diag = {}
        instances, _ = make_blr_problem(8, 15, 4)
        blr.fit(instances, diag=diag)
        assert diag.get("jitter_events", []) == []

    def test_separable_data_stays_bounded(self):
        instances = [make_instance([x], 1 if x > 0 else 0)
                     for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)]
        q = blr.fit(instances)
        assert np.isfinite(q.mu).all()
        assert abs(q.mu[0]) < 10.0

    def test_symmetric_instances_give_zero_mean(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(6, 2))
        instances = []
        for row in base:
            instances.append(make_instance(row, 1))
            instances.append(make_instance(-row, 1))
        q = blr.fit(instances)
        np.testing.assert_allclose(q.mu, np.zeros(2), atol=1e-6)

    def test_curvature_corrected_stays_near_plain_fit(self):
        instances, _ = make_blr_problem(10, 30, 3, coef_scale=0.5)
        q_plain = blr.fit(instances, method="laplace")
        q_corr = blr.fit(instances, method="delta")
        assert np.linalg.norm(q_corr.mu - q_plain.mu) < 0.2
        assert (np.linalg.eigvalsh(q_corr.sigma) > 0.0).all()

    def test_config_alone_selects_the_update(self):
        instances, _ = make_blr_problem(10, 30, 3, coef_scale=0.5)
        by_cfg = blr.fit(instances, cfg=InferenceConfig(method="delta"))
        by_arg = blr.fit(instances, method="delta")
        plain = blr.fit(instances)
        assert np.array_equal(by_cfg.mu, by_arg.mu)
        assert np.array_equal(by_cfg.sigma, by_arg.sigma)
        assert not np.array_equal(by_cfg.mu, plain.mu)
        # an explicit method still wins over the config
        forced = blr.fit(instances, method="laplace", cfg=InferenceConfig(method="delta"))
        assert np.array_equal(forced.mu, plain.mu)

    def test_rejects_empty_and_ragged_input(self):
        with pytest.raises(ValueError):
            blr.BlrModel([], blr.BlrPrior.standard(2))
        bad = [make_instance([1.0, 2.0], 1), make_instance([1.0], 0)]
        with pytest.raises(ValueError):
            blr.BlrModel(bad, blr.BlrPrior.standard(2))


class TestPredictLoglik:
    def test_balanced_point_gives_log_half(self):
        q = GaussianVariational(np.zeros(2), np.eye(2))
        ll = blr.predict_loglik(q, make_instance([1.0, -1.0], 1))
        assert ll == pytest.approx(np.log(0.5), abs=1e-12)

    def test_confident_correct_prediction_approaches_zero(self):
        q = GaussianVariational(np.array([30.0]), np.eye(1))
        ll = blr.predict_loglik(q, make_instance([1.0], 1))
        assert -1e-12 <= ll <= 0.0

    def test_confident_wrong_prediction_clamps(self):
        q = GaussianVariational(np.array([800.0]), np.eye(1))
        ll = blr.predict_loglik(q, make_instance([1.0], 0))
        assert ll == pytest.approx(np.log(1e-300))


class TestHyperUpdate:
    def test_centered_posteriors_leave_mean_at_zero(self):
        hier = blr.HierPrior.default(2)
        qs = [GaussianVariational(np.zeros(2), np.eye(2)) for _ in range(3)]
        mu0, sigma0 = blr.hyper_update(qs, hier, np.zeros(2))
        np.testing.assert_allclose(mu0, np.zeros(2), atol=1e-12)
        denom = 3 + hier.nu - 2 - 1
        np.testing.assert_allclose(sigma0, np.linalg.inv(hier.phi0) / denom,
                                   atol=1e-10)

    def test_single_task_shrinks_hard_under_tight_mean_prior(self):
        hier = blr.HierPrior(nu=102.0, phi0=0.01 * np.eye(2), phi1=1e-6 * np.eye(2))
        q = GaussianVariational(np.array([3.0, -2.0]), np.eye(2))
        mu0, _ = blr.hyper_update([q], hier, np.zeros(2))
        assert np.linalg.norm(mu0) < 0.01 * np.linalg.norm(q.mu)

    def test_many_tasks_recover_their_average_under_weak_mean_prior(self):
        rng = np.random.default_rng(10)
        hier = blr.HierPrior(nu=102.0, phi0=0.01 * np.eye(2), phi1=100.0 * np.eye(2))
        center = np.array([1.2, -0.4])
        qs = [GaussianVariational(center + rng.normal(scale=0.1, size=2), np.eye(2))
              for _ in range(3)]
        avg = np.mean([q.mu for q in qs], axis=0)
        mu0, _ = blr.hyper_update(qs, hier, avg)
        assert np.linalg.norm(mu0 - avg) < 0.1

    def test_scatter_denominator_guard(self):
        hier = blr.HierPrior(nu=1.5, phi0=np.eye(2), phi1=np.eye(2))
        q = GaussianVariational(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            blr.hyper_update([q], hier, np.zeros(2))
        with pytest.raises(ValueError):
            blr.hyper_update([], blr.HierPrior.default(2), np.zeros(2))


class TestBlrPrior:
    def test_rejects_non_positive_definite_covariance(self):
        for cov in (-np.eye(2), np.diag([1.0, 0.0])):
            with pytest.raises(ValueError, match="positive definite"):
                blr.BlrPrior(np.zeros(2), cov)


class TestHierPrior:
    @pytest.mark.parametrize("which", ["phi0", "phi1"])
    def test_rejects_non_positive_definite_scale(self, which):
        scales = {"phi0": np.eye(2), "phi1": np.eye(2)}
        scales[which] = 0.0 * np.eye(2)
        with pytest.raises(ValueError, match=which):
            blr.HierPrior(nu=102.0, **scales)
        scales[which] = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match=which):
            blr.HierPrior(nu=102.0, **scales)


class TestHierarchicalFit:
    def make_tasks(self, seed, m=3, n=12, p=2):
        rng = np.random.default_rng(seed)
        tasks = []
        for _ in range(m):
            instances, _ = make_blr_problem(int(rng.integers(1e6)), n, p)
            tasks.append(instances)
        return tasks

    def test_frozen_hyper_matches_independent_flat_fits(self):
        # one round fits every task under the standard prior before any refit
        tasks = self.make_tasks(11)
        out = blr.fit_hierarchical(tasks, em_iters=1)
        assert len(out.trace.records) == 1
        for task, q in zip(tasks, out.posteriors):
            flat = blr.fit(task)
            np.testing.assert_allclose(q.mu, flat.mu, atol=0)
            np.testing.assert_allclose(q.sigma, flat.sigma, atol=0)

    def test_identical_tasks_share_a_posterior(self):
        instances, _ = make_blr_problem(12, 15, 2)
        out = blr.fit_hierarchical([instances] * 3)
        for q in out.posteriors[1:]:
            np.testing.assert_allclose(q.mu, out.posteriors[0].mu, atol=1e-6)

    def test_shared_mean_moves_toward_common_signal(self):
        rng = np.random.default_rng(13)
        coefs = np.array([1.5, -1.0])
        tasks = []
        for _ in range(4):
            x = rng.normal(size=(25, 2))
            probs = numerics.sigmoid(x @ (coefs + rng.normal(scale=0.2, size=2)))
            labels = (rng.uniform(size=25) < probs).astype(int)
            tasks.append([make_instance(x[i], int(labels[i])) for i in range(25)])
        hier = blr.HierPrior(nu=102.0, phi0=0.01 * np.eye(2), phi1=100.0 * np.eye(2))
        out = blr.fit_hierarchical(tasks, hier, em_iters=30)
        assert out.prior_mean @ coefs > 0.0
        assert np.linalg.norm(out.prior_mean) > 0.1

    def test_thread_count_does_not_change_the_answer(self):
        tasks = self.make_tasks(14, m=4)
        one = blr.fit_hierarchical(tasks, threads=1, em_iters=5)
        two = blr.fit_hierarchical(tasks, threads=2, em_iters=5)
        for a, b in zip(one.posteriors, two.posteriors):
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(one.prior_mean, two.prior_mean)

    def test_default_hyperprior_shape(self):
        hier = blr.HierPrior.default(3)
        assert hier.nu == pytest.approx(103.0)
        np.testing.assert_allclose(hier.phi0, 0.01 * np.eye(3), atol=0)
        np.testing.assert_allclose(hier.phi1, 0.01 * np.eye(3), atol=0)

    def test_config_alone_selects_the_update(self):
        tasks = self.make_tasks(15)
        by_cfg = blr.fit_hierarchical(tasks, cfg=InferenceConfig(method="delta"), em_iters=1)
        plain = blr.fit_hierarchical(tasks, em_iters=1)
        # the first round fits every task under the standard prior
        for instances, q in zip(tasks, by_cfg.posteriors):
            flat = blr.fit(instances, method="delta")
            assert np.array_equal(q.mu, flat.mu)
            assert np.array_equal(q.sigma, flat.sigma)
        assert not np.array_equal(by_cfg.posteriors[0].mu, plain.posteriors[0].mu)

    def test_rejects_em_iters_below_one(self):
        with pytest.raises(ValueError):
            blr.fit_hierarchical(self.make_tasks(16), em_iters=0)

    def test_rejects_empty_tasks(self):
        with pytest.raises(ValueError):
            blr.fit_hierarchical([])
        with pytest.raises(ValueError):
            blr.fit_hierarchical([[make_instance([1.0], 1)], []])
