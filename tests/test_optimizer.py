"""Damped Newton ascent: exactness on quadratics, values that never decrease,
rows independent of their batch, determinism, and failure modes."""

import numpy as np
import pytest

from ncvi import optimize
from ncvi.optimize import (
    LineSearchStallError,
    dense_direction,
    maximize,
    newton,
    shifted_solve,
)
from ncvi.numerics import NonFiniteMatrixError

from conftest import random_spd


def quadratic(a, b):
    def f(x):
        grad = b - a @ x
        return float(b @ x - 0.5 * x @ a @ x), grad, np.linalg.solve(a, grad)

    return f


def rosenbrock_like(x):
    # smooth nonquadratic with curved valleys; its Hessian is indefinite in
    # places, so the direction comes from the shifted dense solve
    v = -((1.0 - x[0]) ** 2) - 5.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        2.0 * (1.0 - x[0]) + 20.0 * x[0] * (x[1] - x[0] ** 2),
        -10.0 * (x[1] - x[0] ** 2),
    ])
    h = np.array([
        [-2.0 + 20.0 * x[1] - 60.0 * x[0] ** 2, 20.0 * x[0]],
        [20.0 * x[0], -10.0],
    ])
    return float(v), g, dense_direction(-h[None], -h[None], g[None])[0]


def rows_of(objectives):
    """A batched `evaluate` running objectives[r] on row r."""

    def evaluate(x, rows):
        out = [objectives[r](xi) for r, xi in zip(rows, x)]
        return tuple(np.array([o[i] for o in out]) for i in range(3))

    return evaluate


class TestQuadratics:
    def test_shifted_bowl(self):
        c = np.array([1.0, 2.0])

        def f(x):
            d = x - c
            return float(-d @ d), -2.0 * d, -d

        res = maximize(f, np.zeros(2))
        np.testing.assert_allclose(res.argmax, c, atol=1e-8)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_spd_solve_oracle(self, monkeypatch):
        monkeypatch.setattr(optimize, "_GRAD_TOL", 1e-10)
        monkeypatch.setattr(optimize, "_MAX_ITERS", 5000)
        rng = np.random.default_rng(3)
        for d in (2, 5, 20, 50):
            for trial in range(3):
                a = random_spd(rng, d, spread=(0.5, 50.0))
                b = rng.normal(size=d)
                res = maximize(quadratic(a, b), np.zeros(d))
                target = np.linalg.solve(a, b)
                assert np.linalg.norm(res.argmax - target) <= 1e-8

    def test_exact_in_one_step(self, monkeypatch):
        monkeypatch.setattr(optimize, "_GRAD_TOL", 1e-8)
        rng = np.random.default_rng(4)
        for d in (1, 2, 5, 20, 50):
            a = random_spd(rng, d, spread=(0.5, 50.0))
            b = rng.normal(size=d)
            res = maximize(quadratic(a, b), rng.normal(size=d))
            assert res.converged and res.iterations == 1
            np.testing.assert_allclose(res.argmax, np.linalg.solve(a, b), rtol=0, atol=1e-10)

    def test_extreme_curvature_one_dimensional(self, monkeypatch):
        monkeypatch.setattr(optimize, "_GRAD_TOL", 1e-10)
        monkeypatch.setattr(optimize, "_MAX_ITERS", 200)
        for scale in (1e6, 1e-4):
            def f(x, scale=scale):
                grad = 1.0 - scale * x
                return float(-0.5 * scale * x @ x + x.sum()), grad, grad / scale

            res = maximize(f, np.zeros(1))
            assert abs(res.argmax[0] - 1.0 / scale) <= 1e-8 / scale


class TestContract:
    def test_constant_objective_converges_immediately(self):
        def f(x):
            return 5.0, np.zeros_like(x), np.zeros_like(x)

        res = maximize(f, np.array([1.0, 2.0]))
        assert res.converged
        assert res.iterations == 0
        assert res.value == 5.0

    def test_values_never_decrease(self, monkeypatch):
        # iterates are deterministic, so stopping after k iterations gives
        # the k-th iterate of the full run
        rng = np.random.default_rng(5)
        for _ in range(5):
            start = rng.normal(size=2)
            with monkeypatch.context() as patch:
                patch.setattr(optimize, "_GRAD_TOL", 1e-10)
                full = maximize(rosenbrock_like, start)
            assert full.converged
            np.testing.assert_allclose(full.argmax, [1.0, 1.0], atol=1e-8)
            values = [rosenbrock_like(start)[0]]
            for k in range(1, full.iterations + 1):
                with monkeypatch.context() as patch:
                    patch.setattr(optimize, "_MAX_ITERS", k)
                    values.append(maximize(rosenbrock_like, start).value)
            assert np.all(np.diff(values) >= 0.0)

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
        start = rng.normal(size=2)
        r1 = maximize(rosenbrock_like, start)
        r2 = maximize(rosenbrock_like, start)
        np.testing.assert_array_equal(r1.argmax, r2.argmax)
        assert r1.value == r2.value
        assert r1.iterations == r2.iterations

    def test_converged_flag_implies_tolerance(self, monkeypatch):
        monkeypatch.setattr(optimize, "_GRAD_TOL", 1e-7)
        rng = np.random.default_rng(8)
        a = random_spd(rng, 5)
        b = rng.normal(size=5)
        res = maximize(quadratic(a, b), np.zeros(5))
        assert res.converged
        assert res.grad_norm <= 1e-7

    def test_warm_start_near_optimum_stays_put(self):
        rng = np.random.default_rng(9)
        a = random_spd(rng, 3)
        b = rng.normal(size=3)
        opt = np.linalg.solve(a, b)
        res = maximize(quadratic(a, b), opt)
        assert np.linalg.norm(res.argmax - opt) <= 1e-10


class TestBatchedRows:
    def test_row_results_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(10)
        objectives = [rosenbrock_like] * 3 + [
            quadratic(random_spd(rng, 2), rng.normal(size=2)) for _ in range(3)
        ]
        starts = rng.normal(size=(6, 2))
        full = newton(rows_of(objectives), starts)
        for r in range(6):
            alone = maximize(objectives[r], starts[r])
            assert np.array_equal(full.argmax[r], alone.argmax)
            assert full.value[r] == alone.value
            assert full.iterations[r] == alone.iterations
            assert full.converged[r] == alone.converged
        assert np.ptp(full.iterations) > 0  # rows really stop on their own

    def test_reports_rows_stopped_at_the_cap(self):
        def evaluate(x, rows):
            # a Newton matrix 1e6 times too stiff: every step is accepted but tiny
            return -0.5 * np.sum(x * x, axis=1), -x, -x / 1e6

        res = newton(evaluate, np.array([[1.0, -1.0], [0.0, 0.0]]))
        assert res.converged.tolist() == [False, True]
        assert res.iterations.tolist() == [optimize._MAX_ITERS, 0]
        assert 0.99 < res.argmax[0, 0] < 1.0 and res.argmax[1].tolist() == [0.0, 0.0]

    def test_steps_below_the_values_rounding_reach_grad_tol(self):
        # 1e8 - |x - 1|^2 / 2, its value summed from a large linear part and
        # its opposite, so the last bits of the value move with x.  From
        # gradients just above grad_tol the Newton step gains ~1e-12, far
        # below that rounding (~1e-8): without one rounding unit of slack in
        # the Armijo test, the exact step fails on its last bits for some rows
        def evaluate(x, rows):
            linear = 3.0 * x
            value = np.sum(1e8 / 3 + linear, axis=1) - np.sum(linear, axis=1)
            return value - 0.5 * np.sum((x - 1.0) ** 2, axis=1), 1.0 - x, 1.0 - x

        starts = 1.0 + np.random.default_rng(12).normal(scale=2e-6, size=(200, 3))
        res = newton(evaluate, starts)
        assert np.all(res.grad_norm <= optimize._GRAD_TOL)

    def test_exhausted_backtracking_raises_stall(self):
        def evaluate(x, rows):
            # finite at the start, no trial point is ever finite
            value = np.where(np.all(x == 0.0, axis=1), 0.0, np.nan)
            return value, np.ones_like(x), np.ones_like(x)

        with pytest.raises(LineSearchStallError):
            newton(evaluate, np.zeros((3, 2)))


def _three_rows(x, rows, trials=None):
    """Row 0: -(x - 1)^2, started at its mode; row 1: -ln cosh x, whose full
    Newton step overshoots; row 2: ln x - x, -inf for x <= 0.  Each point's
    value, gradient and Newton direction, then two further arrays of it.
    `trials` collects (row, value) per evaluation."""
    terms = []
    for r, (xi,) in zip(rows, x):
        if r == 0:
            terms.append((-(xi - 1.0) ** 2, -2.0 * (xi - 1.0), -2.0))
        elif r == 1:
            terms.append((-np.log(np.cosh(xi)), -np.tanh(xi), -1.0 / np.cosh(xi) ** 2))
        elif xi > 0.0:
            terms.append((np.log(xi) - xi, 1.0 / xi - 1.0, -1.0 / xi**2))
        else:
            terms.append((-np.inf, np.nan, -1.0))
        if trials is not None:
            trials.append((r, terms[-1][0]))
    value, grad, hess = (np.array(a) for a in zip(*terms))
    point = np.stack([x[:, 0] ** 3, value], axis=1)
    return value, grad[:, None], (-grad / hess)[:, None], point, np.exp(-x[:, 0]) + rows


class TestCarriedArrays:
    def test_each_rows_arrays_come_from_its_accepted_point(self):
        trials = []
        res = newton(lambda x, rows: _three_rows(x, rows, trials), np.array([[1.0], [2.0], [3.0]]))
        assert res.iterations[0] == 0 and res.iterations[1:].min() > 0
        assert res.converged.all()
        # row 1 shrank a step whose trial fell below its start, row 2 one at -inf
        row_1 = [v for r, v in trials if r == 1]
        assert np.isfinite(row_1).all() and min(row_1) < row_1[0]
        assert any(r == 2 and v == -np.inf for r, v in trials)
        assert len(res.extras) == 2
        for r in range(3):
            fresh = _three_rows(res.argmax[r:r + 1], np.array([r]))[3:]
            for kept, want in zip(res.extras, fresh):
                assert np.array_equal(kept[r], want[0])

    def test_only_rejected_rows_are_evaluated_again(self):
        # Newton steps 1, 2 and 4 times too long on -x^2/2: row 0 lands on
        # the mode, row 1 after one halving and row 2 after two; row 3 starts
        # there and never runs.  An iteration's first trial gets every
        # running row, each halving the rows that failed
        scale, calls = np.array([1.0, 2.0, 4.0, 1.0]), []

        def evaluate(x, rows):
            calls.append(rows.tolist())
            return -0.5 * x[:, 0] ** 2, -x, -scale[rows, None] * x

        res = newton(evaluate, np.array([[1.0], [1.0], [1.0], [0.0]]))
        assert calls == [[0, 1, 2, 3], [0, 1, 2], [1, 2], [2]]
        assert np.array_equal(res.argmax, np.zeros((4, 1))) and res.converged.all()
        assert res.iterations.tolist() == [1, 1, 1, 0]

    def test_three_arrays_carry_nothing(self):
        res = newton(lambda x, rows: _three_rows(x, rows)[:3], np.array([[1.0], [2.0], [3.0]]))
        assert res.extras == ()


class TestDirections:
    def test_dense_solve_where_positive_definite(self):
        rng = np.random.default_rng(11)
        a, b = random_spd(rng, 6), random_spd(rng, 6)
        g = rng.normal(size=6)
        want = np.linalg.solve(a, g)
        # a positive definite exact matrix wins over -H; an indefinite one
        # falls back to -H
        for exact, neg in ((a, a), (a, b), (-b, a)):
            got = dense_direction(exact[None], neg[None], g[None])
            np.testing.assert_allclose(got[0], want, rtol=1e-12)

    def test_indefinite_matrix_is_shifted_into_an_ascent_direction(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        m = q @ np.diag([3.0, 1.0, 0.5, -0.2, -4.0]) @ q.T
        m = 0.5 * (m + m.T)
        g = rng.normal(size=5)
        d = dense_direction(m[None], m[None], g[None])[0]
        assert np.all(np.isfinite(d)) and g @ d > 0.0
        # d solves (m + shift I) d = g for one shift beyond -min eigenvalue
        shift = (g - m @ d) / d
        np.testing.assert_allclose(shift, shift[0], rtol=1e-8)
        assert shift[0] > 4.0

    def test_each_row_is_the_rule_on_that_row_alone(self):
        # a stack whose first exact matrix is positive definite, whose second
        # is indefinite over a positive definite -H, and whose last has an
        # indefinite -H too: each row gets, to the bit, what it gets alone:
        # the exact solve, -H's, or -H's shifted until positive definite
        rng = np.random.default_rng(25)
        neg = np.array([random_spd(rng, 3) for _ in range(3)])
        neg[2] -= 10.0 * np.eye(3)
        exact = neg + np.array([np.eye(3), -10.0 * np.eye(3), np.zeros((3, 3))])
        grad = rng.normal(size=(3, 3))
        got = dense_direction(exact, neg, grad)
        for r in range(3):
            alone = dense_direction(exact[r:r + 1], neg[r:r + 1], grad[r:r + 1])
            assert np.array_equal(got[r], alone[0])
        np.testing.assert_allclose(exact[0] @ got[0], grad[0], rtol=1e-10)
        np.testing.assert_allclose(neg[1] @ got[1], grad[1], rtol=1e-10)
        assert grad[2] @ got[2] > 0.0
        assert not np.allclose(neg[2] @ got[2], grad[2])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_matrix_raises_rather_than_shifting_forever(self, bad):
        # an overflowed exact matrix fails before any solve, and an overflowed
        # -H before any shift, as an overflow
        m = np.eye(3)
        m[1, 1] = bad
        for exact, neg in ((m, np.eye(3)), (-np.eye(3), m)):
            with pytest.raises(NonFiniteMatrixError, match="overflowed"):
                dense_direction(exact[None], neg[None], np.ones((1, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_diagonal_fails_before_any_solve(self, bad):
        # no shift makes an overflowed matrix finite, so none is tried, even
        # by a structured solve that would not refuse it
        with pytest.raises(NonFiniteMatrixError, match="overflowed"):
            shifted_solve(lambda shift: pytest.fail("solved"), np.array([1.0, bad]))

    def test_no_shift_that_gives_a_direction_raises(self):
        # the shift grows tenfold from 1e-3 times the largest diagonal entry
        # until it overflows, and then the search gives up
        tried = []
        with pytest.raises(ArithmeticError, match="no diagonal shift"):
            shifted_solve(tried.append, np.array([1.0, -2.0]))
        assert tried[:3] == [0.0, 2e-3, 2e-2] and np.isfinite(tried).all()
        assert tried[-1] > 1e307


class TestFailureModes:
    def test_nonfinite_start_is_input_error(self):
        def f(x):
            return float("nan"), np.zeros_like(x), np.zeros_like(x)

        with pytest.raises(ValueError):
            maximize(f, np.zeros(2))

    def test_stall_error_carries_best_iterate(self):
        # f = -(x - 2)^2 for x <= 1 and -inf beyond: the first step halves
        # onto x = 1, after which no step can pass
        def f(x):
            value = -float((x[0] - 2.0) ** 2) if x[0] <= 1.0 else float("-inf")
            return value, -2.0 * (x - 2.0), 2.0 - x

        with pytest.raises(LineSearchStallError) as exc:
            maximize(f, np.zeros(1))
        best = exc.value.best
        assert best.value == -1.0 and best.iterations == 1 and not best.converged
        np.testing.assert_array_equal(best.argmax, [1.0])

    def test_rejects_non_vector_start(self):
        with pytest.raises(ValueError):
            maximize(lambda x: (0.0, np.zeros_like(x), np.zeros_like(x)), np.zeros((2, 2)))
