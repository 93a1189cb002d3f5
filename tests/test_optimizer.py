"""Conjugate-gradient maximizer: exactness on quadratics, monotonicity,
determinism, and failure modes."""

import numpy as np
import pytest

from ncvi.optimize import LineSearchStallError, OptimizerConfig, maximize

from conftest import random_spd


def quadratic(a, b):
    def f(x):
        return float(b @ x - 0.5 * x @ a @ x), b - a @ x

    return f


class TestQuadratics:
    def test_shifted_bowl(self):
        c = np.array([1.0, 2.0])

        def f(x):
            d = x - c
            return float(-d @ d), -2.0 * d

        res = maximize(f, np.zeros(2))
        np.testing.assert_allclose(res.argmax, c, atol=1e-8)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_spd_solve_oracle(self):
        rng = np.random.default_rng(3)
        for d in (2, 5, 20, 50):
            for trial in range(3):
                a = random_spd(rng, d, spread=(0.5, 50.0))
                b = rng.normal(size=d)
                res = maximize(
                    quadratic(a, b),
                    np.zeros(d),
                    OptimizerConfig(grad_tol=1e-10, max_iters=5000),
                )
                target = np.linalg.solve(a, b)
                assert np.linalg.norm(res.argmax - target) <= 1e-8

    def test_finite_termination_within_dimension_plus_slack(self):
        # on a strictly concave quadratic the direction set stays conjugate,
        # so the maximizer is reached in at most dim line searches
        rng = np.random.default_rng(4)
        for d in (2, 5, 10, 20):
            a = random_spd(rng, d)
            b = rng.normal(size=d)
            res = maximize(quadratic(a, b), np.zeros(d), OptimizerConfig(grad_tol=1e-8))
            assert res.converged
            assert res.iterations <= d + 3

    def test_extreme_curvature_one_dimensional(self):
        for scale in (1e6, 1e-4):
            def f(x, scale=scale):
                return float(-0.5 * scale * x @ x + x.sum()), 1.0 - scale * x

            res = maximize(f, np.zeros(1), OptimizerConfig(grad_tol=1e-10, max_iters=200))
            assert abs(res.argmax[0] - 1.0 / scale) <= 1e-8 / scale


class TestContract:
    def test_constant_objective_converges_immediately(self):
        def f(x):
            return 5.0, np.zeros_like(x)

        res = maximize(f, np.array([1.0, 2.0]))
        assert res.converged
        assert res.iterations <= 1
        assert res.value == 5.0

    def test_history_is_monotone_nondecreasing(self):
        rng = np.random.default_rng(5)

        def rosenbrock_like(x):
            # smooth nonquadratic with curved valleys
            v = -((1.0 - x[0]) ** 2) - 5.0 * (x[1] - x[0] ** 2) ** 2
            g = np.array(
                [
                    2.0 * (1.0 - x[0]) + 20.0 * x[0] * (x[1] - x[0] ** 2),
                    -10.0 * (x[1] - x[0] ** 2),
                ]
            )
            return float(v), g

        for _ in range(5):
            hist = []
            maximize(
                rosenbrock_like,
                rng.normal(size=2),
                OptimizerConfig(max_iters=300),
                history=hist,
            )
            diffs = np.diff(hist)
            assert (diffs >= -1e-12).all()

    def test_value_never_below_start(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 4)
        b = rng.normal(size=4)
        start = rng.normal(size=4)
        f = quadratic(a, b)
        res = maximize(f, start)
        assert res.value >= f(start)[0] - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 6)
        b = rng.normal(size=6)
        start = rng.normal(size=6)
        r1 = maximize(quadratic(a, b), start)
        r2 = maximize(quadratic(a, b), start)
        np.testing.assert_array_equal(r1.argmax, r2.argmax)
        assert r1.value == r2.value
        assert r1.iterations == r2.iterations

    def test_converged_flag_implies_tolerance(self):
        rng = np.random.default_rng(8)
        a = random_spd(rng, 5)
        b = rng.normal(size=5)
        cfg = OptimizerConfig(grad_tol=1e-7)
        res = maximize(quadratic(a, b), np.zeros(5), cfg)
        assert res.converged
        assert res.grad_norm <= cfg.grad_tol

    def test_warm_start_near_optimum_stays_put(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 3)
        b = rng.normal(size=3)
        opt = np.linalg.solve(a, b)
        res = maximize(quadratic(a, b), opt)
        assert np.linalg.norm(res.argmax - opt) <= 1e-10


class TestFailureModes:
    def test_nonfinite_start_is_input_error(self):
        def f(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(ValueError):
            maximize(f, np.zeros(2))

    def test_stall_error_carries_best_iterate(self):
        # value jumps to -inf away from the start: no step can pass
        def f(x):
            if np.linalg.norm(x) < 1e-30:
                return 0.0, np.ones_like(x)
            return float("-inf"), np.zeros_like(x)

        with pytest.raises(LineSearchStallError) as exc:
            maximize(f, np.zeros(2))
        assert exc.value.best.value == 0.0
        np.testing.assert_array_equal(exc.value.best.argmax, np.zeros(2))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)

    def test_rejects_non_vector_start(self):
        with pytest.raises(ValueError):
            maximize(lambda x: (0.0, np.zeros_like(x)), np.zeros((2, 2)))
