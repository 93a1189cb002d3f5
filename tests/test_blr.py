"""Logistic regression with Gaussian coefficient priors, flat and shared."""

import numpy as np
import pytest

from ncvi import blr, engine, numerics, optimize
from ncvi.engine import InferenceConfig
from ncvi.model import GaussianVariational, LabeledInstance

from conftest import (
    make_blr_problem,
    make_instance,
    profile_hessian,
    random_spd,
    stopped_short,
    trust_exact_argmax,
)


def trace_hessian(model, theta, sigma):
    """blr._trace_hessian, the Hessian of theta -> Tr{H(theta) sigma} at fixed
    sigma, on a BlrModel's one-task pack."""
    t, segments, _, _, sig, w = model._terms(theta)
    return blr._trace_hessian(t, sig, w, blr._quad(t, [sigma], segments), segments)[0]


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
                lambda t: model.f_value_grad(t)[0], theta
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

    def test_trace_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        instances, _ = make_blr_problem(6, 8, 3)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(3))
        sigma = random_spd(rng, 3, spread=(0.1, 1.0))
        theta = rng.uniform(-1.0, 1.0, size=3)
        hess = trace_hessian(model, theta, sigma)
        for i in range(3):
            row = numerics.finite_diff_gradient(lambda t: model.trace_grad(t, sigma)[i], theta)
            np.testing.assert_allclose(hess[i], row, rtol=1e-4, atol=1e-6)

    def test_delta_newton_direction_solves_its_exact_curvature(self):
        # the delta Newton matrix is the negated Hessian of f + Tr{H sigma}/2,
        # taken here by central differences of that objective's gradient
        rng = np.random.default_rng(7)
        instances, _ = make_blr_problem(8, 30, 3)
        model = blr.BlrModel(instances, blr.BlrPrior.standard(3))
        theta = rng.uniform(-1.0, 1.0, size=3)
        sigma = np.linalg.inv(-model.f_hessian(theta))  # the delta update's own Sigma

        def grad(t):
            return model.f_value_grad(t)[1] + 0.5 * model.trace_grad(t, sigma)

        neg = -np.array([numerics.finite_diff_gradient(lambda t: grad(t)[i], theta)
                         for i in range(3)])
        assert np.all(np.linalg.eigvalsh(0.5 * (neg + neg.T)) > 0.0)
        direction = model.newton_direction(theta, None, grad(theta), sigma)
        np.testing.assert_allclose(neg @ direction, grad(theta), rtol=1e-5, atol=1e-7)
        # where that matrix is indefinite the step falls back to f's curvature
        sigma = 20.0 * np.eye(3)
        exact = -model.f_hessian(theta) - 0.5 * trace_hessian(model, theta, sigma)
        assert np.linalg.eigvalsh(exact)[0] < 0.0
        np.testing.assert_allclose(
            model.newton_direction(theta, None, grad(theta), sigma),
            np.linalg.solve(-model.f_hessian(theta), grad(theta)), rtol=1e-10,
        )

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
        x, y = np.array([1.0, 2.0, 1.5, -0.5]), np.array([1.0, 1.0, 0.0, 0.0])
        instances = [make_instance([xi], yi) for xi, yi in zip(x, y)]
        model = blr.BlrModel(instances, blr.BlrPrior.standard(1))
        grid = np.arange(-5.0, 5.0, 1e-4)
        # the log posterior f at every grid point in one array expression
        a = np.outer(grid, x)
        values = (numerics.log_sigmoid(a) @ y + numerics.log_sigmoid(-a) @ (1.0 - y)
                  - 0.5 * grid**2)
        for k in (0, 31_415, len(grid) - 1):
            assert values[k] == pytest.approx(model.f_value_grad(grid[k:k + 1])[0], rel=1e-12)
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
        # logistic curvature plus a proper prior is always strictly concave:
        # Sigma is (-H(mu))^{-1} to rounding, with no jitter on the diagonal
        instances, _ = make_blr_problem(8, 15, 4)
        q = blr.fit(instances)
        neg = -blr.BlrModel(instances, blr.BlrPrior.standard(4)).f_hessian(q.mu)
        np.testing.assert_allclose(q.sigma @ neg, np.eye(4), rtol=0, atol=1e-12)

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
        delta = blr.fit(instances, method="delta")
        plain = blr.fit(instances)
        assert not np.array_equal(delta.mu, plain.mu)
        assert np.array_equal(plain.mu, blr.fit(instances, method="laplace").mu)

    def test_rejects_empty_and_ragged_input(self):
        with pytest.raises(ValueError):
            blr.BlrModel([], blr.BlrPrior.standard(2))
        with pytest.raises(ValueError, match="at least one labeled instance"):
            blr.fit([])
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

    def test_mean_is_the_posterior_mode_given_the_covariance(self):
        # mu0 = (M Sigma0^{-1} + phi1^{-1})^{-1} Sigma0^{-1} sum_m mu_m
        rng = np.random.default_rng(14)
        p, m = 3, 5
        hier = blr.HierPrior(nu=p + 2.0, phi0=random_spd(rng, p), phi1=random_spd(rng, p))
        qs = [GaussianVariational(rng.normal(scale=2.0, size=p), np.eye(p)) for _ in range(m)]
        mu0, sigma0 = blr.hyper_update(qs, hier, rng.normal(size=p))
        sigma0_inv = np.linalg.solve(sigma0, np.eye(p))
        total = np.sum([q.mu for q in qs], axis=0)
        want = np.linalg.solve(m * sigma0_inv + np.linalg.solve(hier.phi1, np.eye(p)),
                               np.linalg.solve(sigma0, total))
        np.testing.assert_allclose(mu0, want, rtol=1e-10, atol=1e-12)

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

    def test_rejects_asymmetric_covariance(self):
        # the factor reads the lower triangle: only this input check sees the upper
        with pytest.raises(ValueError, match="symmetric"):
            blr.BlrPrior(np.zeros(2), np.array([[1.0, 0.5], [0.2, 1.0]]))


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

    @pytest.mark.parametrize("nu", [float("nan"), float("inf")])
    def test_rejects_non_finite_degrees_of_freedom(self, nu):
        with pytest.raises(ValueError, match="degrees of freedom"):
            blr.HierPrior(nu=nu, phi0=np.eye(2), phi1=np.eye(2))


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

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_one_newton_call_per_refit_round(self, method, monkeypatch):
        real = optimize.newton
        for m in (1, 5):
            tasks = self.make_tasks(19, m=m)
            sizes = []
            monkeypatch.setattr(optimize, "newton", lambda f, x: sizes.append(len(x)) or real(f, x))
            cfg = InferenceConfig(method, conv_tol=1e-12)
            out = blr.fit_hierarchical(tasks, cfg=cfg, em_iters=3)
            # each round refits every task, and only the tasks, in one ascent
            assert len(out.trace) == 3 and sizes == [m] * 3

    def test_task_refit_stopped_short_is_not_converged(self, monkeypatch):
        tasks = self.make_tasks(17)
        assert blr.fit_hierarchical(tasks).trace.converged
        monkeypatch.setattr(optimize, "newton", stopped_short(optimize.newton))
        out = blr.fit_hierarchical(tasks)
        # the shared mean settled before the round cap, but a refit fell short
        assert len(out.trace) < 20 and not out.trace.converged

    def test_rejects_em_iters_below_one(self):
        with pytest.raises(ValueError):
            blr.fit_hierarchical(self.make_tasks(16), em_iters=0)

    def test_rejects_empty_tasks(self):
        with pytest.raises(ValueError):
            blr.fit_hierarchical([])
        with pytest.raises(ValueError):
            blr.fit_hierarchical([[make_instance([1.0], 1)], []])


def logistic_oracle(task, prior, theta, shift=None):
    """One task's f or, given a shift, its delta profile g = f + (log|Sigma|
    - dim)/2 at Sigma = (-H + shift I)^{-1}, in plain numpy from the
    instances, sharing no code with blr: the value, its gradient, -H and
    the profile's fixed-Sigma Newton matrix -H - Hessian{Tr(H Sigma)}/2
    (-H for f)."""
    t = np.array([inst.covariates for inst in task])
    y = np.array([inst.label for inst in task], dtype=float)
    a = t @ theta
    p = 1.0 / (1.0 + np.exp(-a))
    w = p * (1.0 - p)
    diff = theta - prior.mean
    prec = np.linalg.inv(prior.cov)
    value = (-y @ np.logaddexp(0.0, -a) - (1.0 - y) @ np.logaddexp(0.0, a)
             - 0.5 * diff @ prec @ diff)
    grad = t.T @ (y - p) - prec @ diff
    neg = (t.T * w) @ t + prec
    if shift is None:
        return value, grad, neg, neg
    mat = neg + shift * np.eye(len(theta))
    sigma = np.linalg.inv(mat)
    q = np.einsum("np,pq,nq->n", t, sigma, t)
    value += 0.5 * (-np.linalg.slogdet(mat)[1] - len(theta))
    grad = grad - 0.5 * t.T @ (w * (1.0 - 2.0 * p) * q)
    exact = neg + 0.5 * (t.T * ((w * (1.0 - 2.0 * p) ** 2 - 2.0 * w * w) * q)) @ t
    return value, grad, neg, exact


class TestPackedTasks:
    """blr._Tasks, the packed rows every fit runs on, against oracles that
    share no code with it: plain numpy, finite differences and scipy's
    trust-region ascent."""

    def tasks(self):
        # unequal sizes, a one-instance task and a separable task
        tasks = [make_blr_problem(seed, n, 3)[0] for seed, n in ((20, 7), (21, 30), (22, 12))]
        tasks.append([make_instance([0.5, -1.0, 2.0], 1)])
        separable = [make_instance([x, 1.0, -0.5 * x], int(x > 0)) for x in (-2.0, -1.0, 1.5, 3.0)]
        tasks.append(separable)
        return tasks

    def prior(self):
        return blr.BlrPrior(np.array([0.2, -0.1, 0.3]), random_spd(np.random.default_rng(23), 3))

    def test_packs_each_instance_once(self):
        # flat in task order, so however unequal the tasks nothing is padded
        tasks = self.tasks()
        rows = blr._Tasks.of(tasks, self.prior())
        assert len(rows) == len(tasks)
        assert rows.t.shape == (sum(map(len, tasks)), 3)
        np.testing.assert_array_equal(np.diff(rows.bounds), [len(task) for task in tasks])
        np.testing.assert_array_equal(rows.t[rows.bounds[3]], tasks[3][0].covariates)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    @pytest.mark.parametrize("which", ["flat", "tasks", "cancelling"])
    def test_refit_matches_a_trust_region_oracle(self, method, which):
        # each task's mean at trust-exact's argmax of the plain numpy
        # objective, and bitwise the mean and Sigma of the task packed alone
        tasks = self.tasks()[1:2] if which == "flat" else self.tasks()
        prior = self.prior()
        if which == "cancelling":
            # under this prior the delta profile's Newton matrix, a Gram
            # matrix of weights of both signs, cancels to an asymmetry past
            # spd_factorize's tolerance; the pack reads its lower triangle
            tasks = [[make_instance([478.9158741102069, 80.0, -100.0], 0),
                      make_instance([0.0, 0.0, -100.0], 0)]]
            prior = blr.BlrPrior.standard(3)
        shift = None if method == "laplace" else 0.0
        mu, sigma, _, converged = engine._refit(
            blr._Tasks.of(tasks, prior), None, np.zeros((len(tasks), 3)), method)
        assert converged.all()
        for task, m, s in zip(tasks, mu, sigma):
            def objective(theta, task=task):
                return logistic_oracle(task, prior, theta, shift)[:2]

            hessian = (lambda t: -logistic_oracle(task, prior, t)[2]) if shift is None else (
                lambda t: profile_hessian(objective, t))
            want = trust_exact_argmax(objective, hessian, np.zeros(3))
            # newton stops at grad_tol 1e-6, and these small tasks curve as
            # little as 0.28: the means lie up to 3.1e-7 apart
            assert np.linalg.norm(objective(m)[1]) <= optimize.OptimizerConfig().grad_tol
            np.testing.assert_allclose(m, want, rtol=0, atol=1e-6)
            alone = engine._refit(blr._Tasks.of([task], prior), None, np.zeros((1, 3)), method)
            assert np.array_equal(alone[0][0], m) and np.array_equal(alone[1][0], s)

    @pytest.mark.parametrize("shift", [None, 0.0, 0.5])
    def test_evaluations_match_finite_differences(self, shift):
        # each row's value as plain numpy computes it, its gradient as central
        # differences of that value, and its direction solving the row's
        # Newton matrix where positive definite, else -H
        tasks = self.tasks()
        prior = self.prior()
        theta = np.random.default_rng(24).normal(size=(len(tasks), 3))
        theta[3] *= 1e200  # f is not finite there: the line search rejects it unread
        evaluate = blr._Tasks.of(tasks, prior).ascent(None, shift)
        # a subset, as the line search asks, and one whose rows are all rejected
        for rows in (np.array([0, 2, 3, 4]), np.array([3])):
            values, grads, directions, *_ = evaluate(theta[rows], rows)
            for r, value, grad, direction in zip(rows, values, grads, directions):
                if r == 3:
                    assert value == -np.inf and np.array_equal(direction, grad)
                    continue
                want, _, neg, exact = logistic_oracle(tasks[r], prior, theta[r], shift)
                assert value == pytest.approx(want, rel=1e-12)
                fd = numerics.finite_diff_gradient(
                    lambda x, r=r: evaluate(x[None], np.array([r]))[0][0], theta[r])
                np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
                mat = exact if np.linalg.eigvalsh(exact)[0] > 0.0 else neg
                np.testing.assert_allclose(mat @ direction, grad, rtol=1e-8, atol=1e-12)

    def test_delta_sigma_is_the_covariance_at_the_argmax(self, monkeypatch):
        # Sigma and log|Sigma| from the evaluation that accepted each mean,
        # to the bit, with no covariance call.  Every trial of task 1 that
        # shares its evaluation is rejected at -inf, as where f overflows:
        # the pack pads that row and evaluates the others on their own, and
        # those evaluations accept the other tasks' means until task 1 stops
        rows = blr._Tasks.of(self.tasks(), self.prior())
        real_terms, real_covariance, calls = blr._Tasks._terms, blr._Tasks.covariance, []

        def terms(pack, theta, which):
            t, segments, value, *rest = real_terms(pack, theta, which)
            calls.append(which.tolist())
            if len(calls) > 1 and len(which) > 1:  # not the start
                value = np.where(which == 1, -np.inf, value)
            return t, segments, value, *rest

        monkeypatch.setattr(blr._Tasks, "_terms", terms)
        monkeypatch.setattr(blr._Tasks, "covariance", lambda *a: pytest.fail("covariance called"))
        mu, sigma, log_det, converged = engine._refit(rows, None, np.zeros((5, 3)), "delta")
        assert converged.all() and calls[1:3] == [[0, 1, 2, 3, 4], [0, 2, 3, 4]]
        want, want_log_det = real_covariance(rows, mu, None, 0.0)
        assert np.array_equal(sigma, want) and np.array_equal(log_det, want_log_det)

    def test_indefinite_newton_matrix_falls_back_per_row(self):
        # a stack whose second exact matrix is indefinite, and whose last
        # has an indefinite -H too: each row gets optimize.dense_direction's
        # direction, the exact solve, -H's, or -H's shifted until definite
        rng = np.random.default_rng(25)
        neg = np.array([random_spd(rng, 3) for _ in range(4)])
        neg[3] -= 10.0 * np.eye(3)
        exact = neg + np.array([np.eye(3), -10.0 * np.eye(3), 0.5 * np.eye(3), np.zeros((3, 3))])
        grad = rng.normal(size=(4, 3))
        got = blr._directions(exact, neg, grad)
        for e, n, g, d in zip(exact, neg, grad, got):
            np.testing.assert_allclose(d, optimize.dense_direction(n, g, e), rtol=1e-12)

    def test_monitor_scores_each_task(self):
        # f + (Tr{H Sigma} + log|Sigma|)/2 per task, from the instances in
        # plain numpy, at arbitrary means and covariances
        tasks = self.tasks()
        prior = self.prior()
        rng = np.random.default_rng(26)
        mu = rng.normal(size=(len(tasks), 3))
        sigma = np.array([random_spd(rng, 3, spread=(0.1, 2.0)) for _ in tasks])
        log_det = np.linalg.slogdet(sigma)[1]
        got = blr._Tasks.of(tasks, prior).monitor(mu, sigma, None, None, log_det)
        for task, m, s, ld, score in zip(tasks, mu, sigma, log_det, got):
            t = np.array([inst.covariates for inst in task])
            y = np.array([inst.label for inst in task], dtype=float)
            a = t @ m
            loglik = -y @ np.logaddexp(0.0, -a) - (1.0 - y) @ np.logaddexp(0.0, a)
            diff = m - prior.mean
            w = 1.0 / ((1.0 + np.exp(a)) * (1.0 + np.exp(-a)))
            hess = -(t.T * w) @ t - np.linalg.inv(prior.cov)
            want = (loglik - 0.5 * diff @ np.linalg.solve(prior.cov, diff)
                    + 0.5 * (np.trace(hess @ s) + ld))
            assert score == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_hierarchical_fit_matches_task_by_task_fits(self, method, monkeypatch):
        # the packed rounds against each round refitting its tasks one pack
        # at a time: the same posteriors and shared prior to the bit, and
        # the same objectives up to the order of the task sum
        tasks = self.tasks()
        cfg = InferenceConfig(method=method, conv_tol=1e-8)
        got = blr.fit_hierarchical(tasks, cfg=cfg, em_iters=6)
        real_fit = blr._fit

        def task_by_task(rows, cfg):
            fits = [real_fit(blr._Tasks.of([task], rows.prior), cfg) for task in tasks]
            return ([q for (q,), _, _ in fits], np.concatenate([o for _, o, _ in fits]),
                    np.concatenate([c for _, _, c in fits]))

        monkeypatch.setattr(blr, "_fit", task_by_task)
        want = blr.fit_hierarchical(tasks, cfg=cfg, em_iters=6)
        assert len(got.trace) == len(want.trace)
        for q, r in zip(got.posteriors, want.posteriors):
            assert np.array_equal(q.mu, r.mu) and np.array_equal(q.sigma, r.sigma)
        assert np.array_equal(got.prior_mean, want.prior_mean)
        assert np.array_equal(got.prior_cov, want.prior_cov)
        np.testing.assert_allclose([r.objective for r in got.trace.records],
                                   [r.objective for r in want.trace.records], rtol=1e-14)
