"""Special functions and SPD linear algebra.

The gamma family and the sigmoids wrap scipy.special, so the independent
checks are the frozen high-precision references, the recurrences and the
finite differences.  The sweeps against scipy.special only pin each wrapper
to the right function and order.
"""

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from ncvi import numerics

# frozen references: ln sqrt(pi), -EulerGamma, pi^2/6, -2 zeta(3)
LN_SQRT_PI = 0.5723649429247001
NEG_EULER_GAMMA = -0.5772156649015329
PI2_OVER_6 = 1.6449340668482264
NEG_TWO_ZETA3 = -2.4041138063191885

EPS = np.finfo(float).eps


def lgamma_bound(value):
    # 1e-10 absolute where representable; ulp-limited above ~3e5 magnitude
    return max(1e-10, 8.0 * EPS * abs(value))


class TestLogGamma:
    def test_integer_fixed_points(self):
        assert numerics.log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert numerics.log_gamma(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_half(self):
        assert numerics.log_gamma(0.5) == pytest.approx(LN_SQRT_PI, abs=1e-10)

    def test_sweep_against_scipy(self):
        xs = np.geomspace(1e-3, 1e6, 400)
        ours = numerics.log_gamma(xs)
        ref = sps.gammaln(xs)
        for o, r in zip(ours, ref):
            assert abs(o - r) <= lgamma_bound(r)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numerics.log_gamma(0.0)
        with pytest.raises(ValueError):
            numerics.log_gamma(-1.0)
        with pytest.raises(ValueError):
            numerics.log_gamma(float("nan"))


class TestDigamma:
    def test_at_one(self):
        assert numerics.digamma(1.0) == pytest.approx(NEG_EULER_GAMMA, abs=1e-10)

    def test_at_two_via_recurrence(self):
        assert numerics.digamma(2.0) == pytest.approx(
            NEG_EULER_GAMMA + 1.0, abs=1e-10
        )

    def test_matches_central_difference_of_log_gamma(self):
        h = 1e-5
        for x in np.geomspace(0.1, 100.0, 40):
            fd = (numerics.log_gamma(x + h) - numerics.log_gamma(x - h)) / (2 * h)
            assert numerics.digamma(x) == pytest.approx(fd, abs=1e-6)

    def test_sweep_against_scipy(self):
        xs = np.geomspace(1e-3, 1e6, 400)
        np.testing.assert_allclose(
            numerics.digamma(xs), sps.psi(xs), rtol=1e-12, atol=1e-10
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numerics.digamma(-3.0)


class TestTrigamma:
    def test_at_one(self):
        assert numerics.trigamma(1.0) == pytest.approx(PI2_OVER_6, abs=1e-8)

    def test_at_two_via_recurrence(self):
        assert numerics.trigamma(2.0) == pytest.approx(PI2_OVER_6 - 1.0, abs=1e-8)

    def test_matches_finite_difference_of_digamma(self):
        h = 1e-5
        for x in np.geomspace(0.5, 50.0, 25):
            fd = (numerics.digamma(x + h) - numerics.digamma(x - h)) / (2 * h)
            assert numerics.trigamma(x) == pytest.approx(fd, abs=1e-5)

    def test_sweep_against_scipy(self):
        xs = np.geomspace(1e-3, 1e6, 400)
        np.testing.assert_allclose(
            numerics.trigamma(xs), sps.polygamma(1, xs), rtol=1e-10, atol=1e-8
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numerics.trigamma(0.0)


class TestPolygamma2:
    def test_at_one(self):
        assert numerics.polygamma_2(1.0) == pytest.approx(NEG_TWO_ZETA3, abs=1e-12)

    def test_matches_finite_difference_of_trigamma(self):
        h = 1e-5
        for x in np.geomspace(0.5, 50.0, 25):
            fd = (numerics.trigamma(x + h) - numerics.trigamma(x - h)) / (2 * h)
            assert numerics.polygamma_2(x) == pytest.approx(fd, abs=1e-5)

    def test_sweep_against_scipy(self):
        xs = np.geomspace(1e-3, 1e6, 400)
        np.testing.assert_allclose(
            numerics.polygamma_2(xs), sps.polygamma(2, xs), rtol=1e-10, atol=1e-8
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            numerics.polygamma_2(0.0)
        with pytest.raises(ValueError):
            numerics.polygamma_2(np.array([1.0, float("inf")]))


WRAPPED = [
    numerics.log_gamma,
    numerics.digamma,
    numerics.trigamma,
    numerics.polygamma_2,
    numerics.sigmoid,
    numerics.log_sigmoid,
]


@pytest.mark.parametrize("fn", WRAPPED, ids=lambda f: f.__name__)
def test_scalar_gives_float_and_array_keeps_shape(fn):
    assert type(fn(1.5)) is float
    assert type(fn(np.float64(1.5))) is float
    assert type(fn(np.array(1.5))) is float
    grid = np.full((2, 3), 1.5)
    out = fn(grid)
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    np.testing.assert_array_equal(out, np.full((2, 3), fn(1.5)))


@given(st.floats(min_value=1e-3, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_digamma_recurrence(x):
    lhs = numerics.digamma(x + 1.0)
    rhs = numerics.digamma(x) + 1.0 / x
    assert abs(lhs - rhs) <= 1e-10 + 1e-12 * abs(rhs)


@given(st.floats(min_value=1e-3, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_trigamma_recurrence(x):
    lhs = numerics.trigamma(x + 1.0)
    rhs = numerics.trigamma(x) - 1.0 / (x * x)
    assert abs(lhs - rhs) <= 1e-10 + 1e-12 * abs(rhs)


@given(st.floats(min_value=1e-3, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_polygamma_2_recurrence(x):
    lhs = numerics.polygamma_2(x + 1.0)
    step = 2.0 / (x * x * x)
    rhs = numerics.polygamma_2(x) + step
    # the sum cancels for small x; rounding scales with its terms, not rhs
    assert abs(lhs - rhs) <= 1e-10 + 1e-12 * step


class TestSpdFactorize:
    def test_identity(self):
        fac = numerics.spd_factorize(np.eye(3))
        assert fac.log_det == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(fac.inverse(), np.eye(3), atol=1e-14)

    def test_diagonal_log_det(self):
        fac = numerics.spd_factorize(np.diag([2.0, 2.0]))
        assert fac.log_det == pytest.approx(2.0 * np.log(2.0), abs=1e-14)

    def test_scaled_identity_log_det(self):
        for k in (0.5, 3.0, 17.0):
            for d in (1, 4, 9):
                fac = numerics.spd_factorize(k * np.eye(d))
                assert fac.log_det == pytest.approx(d * np.log(k), abs=1e-12)

    def test_solve_multiply_back(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.integers(1, 8)
            b = rng.normal(size=(d, d))
            a = b.T @ b + np.eye(d)
            fac = numerics.spd_factorize(a)
            np.testing.assert_allclose(fac.inverse() @ a, np.eye(d), atol=1e-8)

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            b = rng.normal(size=(5, 5))
            a = b.T @ b + np.eye(5)
            fac = numerics.spd_factorize(a)
            _, ref = np.linalg.slogdet(a)
            assert fac.log_det == pytest.approx(ref, abs=1e-10)

    def test_not_positive_definite_error_carries_pivot(self):
        m = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(numerics.NotPositiveDefiniteError) as exc:
            numerics.spd_factorize(m)
        assert exc.value.pivot == 1

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            numerics.spd_factorize(m)

    def test_rejects_nonfinite(self):
        m = np.array([[1.0, 0.0], [0.0, np.inf]])
        with pytest.raises(ValueError):
            numerics.spd_factorize(m)


class TestFiniteDiffGradient:
    def test_quadratic_at_origin(self):
        g = numerics.finite_diff_gradient(lambda x: float(x @ x), np.zeros(3))
        np.testing.assert_allclose(g, np.zeros(3), atol=1e-9)

    def test_linear(self):
        c = np.array([2.0, -3.0, 0.5])
        g = numerics.finite_diff_gradient(
            lambda x: float(c @ x), np.array([1.0, 4.0, -2.0])
        )
        np.testing.assert_allclose(g, c, rtol=1e-9)

    def test_rejects_nonfinite_evaluation(self):
        def f(x):
            return float("inf") if x[0] > 0.5 else 0.0

        with pytest.raises(ArithmeticError):
            numerics.finite_diff_gradient(f, np.array([0.5]))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            numerics.finite_diff_gradient(lambda x: 0.0, np.zeros(2), h=-1.0)


class TestStableTransforms:
    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=6)
        np.testing.assert_allclose(
            numerics.softmax(v), numerics.softmax(v + 123.4), atol=1e-12
        )

    def test_softmax_handles_large_inputs(self):
        out = numerics.softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_log_sum_exp_matches_direct_small(self):
        v = np.array([0.1, -0.4, 1.2])
        assert numerics.log_sum_exp(v) == pytest.approx(
            np.log(np.exp(v).sum()), abs=1e-12
        )

    def test_log_sigmoid_saturation(self):
        assert numerics.log_sigmoid(50.0) == pytest.approx(0.0, abs=1e-12)
        assert numerics.log_sigmoid(-50.0) == pytest.approx(-50.0, abs=1e-9)
        assert np.isfinite(numerics.log_sigmoid(-1000.0))

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-30, 30, 13)
        np.testing.assert_allclose(
            numerics.sigmoid(xs) + numerics.sigmoid(-xs), np.ones_like(xs), atol=1e-12
        )
