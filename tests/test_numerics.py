"""Special functions and SPD linear algebra.

The gamma family is numpy (Cephes' algorithms: recurrences, a rational form
of ln Gamma on [2, 3), asymptotic series), so its checks are the frozen
high-precision references, the recurrences, the finite differences, and
scipy.special as the reference: ln Gamma within 4 ulp of it (or 1e-15) on
(1e-3, 30), all four within 1e-13 relative across the doubles, finite
wherever it is finite, and silent at extreme arguments.  The sigmoids are
numpy too, a fast path whose reference is scipy.special's expit and
log_expit: the sweep against them bounds the difference.
"""

import warnings

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


def scipy_reference(name, xs):
    with np.errstate(over="ignore"):
        return {
            "log_gamma": lambda: sps.gammaln(xs),
            "digamma": lambda: sps.psi(xs),
            "trigamma": lambda: sps.zeta(2.0, xs),
            "polygamma_2": lambda: -2.0 * sps.zeta(3.0, xs),
        }[name]()


GAMMA_FAMILY = ["log_gamma", "digamma", "trigamma", "polygamma_2"]


class TestGammaFamilyAgainstScipy:
    def test_log_gamma_within_four_ulp_below_thirty(self):
        xs = np.geomspace(1e-3, 30.0, 20_000)
        ref = sps.gammaln(xs)
        bound = np.maximum(4.0 * np.spacing(np.abs(ref)), 1e-15)
        assert np.all(np.abs(numerics.log_gamma(xs) - ref) <= bound)

    @pytest.mark.parametrize("name", GAMMA_FAMILY)
    def test_relative_error_across_the_doubles(self, name):
        xs = np.geomspace(1e-300, 1e300, 20_001)
        ref = scipy_reference(name, xs)
        ours = getattr(numerics, name)(xs)
        finite = np.isfinite(ref)
        assert np.all(np.isfinite(ours[finite]))
        err = np.abs(ours[finite] - ref[finite])
        assert np.all(err <= 1e-13 * np.abs(ref[finite]) + 1e-15)

    @pytest.mark.parametrize("name", GAMMA_FAMILY)
    def test_no_runtime_warning_at_extreme_arguments(self, name):
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
        extremes = [tiny, 1e-310, 1e-300, 1e-160, 1e-103, 1e300, 1e306, huge]
        fn = getattr(numerics, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(np.array(extremes))
            scalars = [fn(x) for x in extremes]
        assert np.array_equal(out, scalars)
        assert not np.any(np.isnan(out))


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

    def test_solve_matches_inverse(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(6, 6))
        a = b.T @ b + np.eye(6)
        fac = numerics.spd_factorize(a)
        rhs = rng.normal(size=6)
        np.testing.assert_allclose(fac.solve(rhs), fac.inverse() @ rhs, rtol=1e-10)
        np.testing.assert_allclose(a @ fac.solve(rhs), rhs, atol=1e-10)

    def test_inverse_is_exactly_symmetric_and_c_ordered(self):
        # downstream matrix products round by memory layout, so the inverse
        # keeps the row-major layout every caller was written against
        rng = np.random.default_rng(3)
        b = rng.normal(size=(7, 7))
        inv = numerics.spd_factorize(b.T @ b + np.eye(7)).inverse()
        assert np.array_equal(inv, inv.T)
        assert inv.flags["C_CONTIGUOUS"]

    def test_rejects_indefinite(self):
        with pytest.raises(numerics.NotPositiveDefiniteError):
            numerics.spd_factorize(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_rejects_matrices_that_are_not_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            numerics.spd_factorize(np.ones(shape))

    def test_reads_only_the_lower_triangle(self):
        # as np.linalg.cholesky: a rounding asymmetry in a matrix the program
        # built is no error, and the upper triangle changes no bit
        rng = np.random.default_rng(4)
        b = rng.normal(size=(3, 5, 5))
        lower = np.tril(b @ b.swapaxes(-1, -2) + np.eye(5))
        mirrored = lower + np.tril(lower, -1).swapaxes(-1, -2)
        garbled = lower + np.triu(rng.normal(size=(3, 5, 5)), 1)
        for m, ref in ((garbled[0], mirrored[0]), (garbled, mirrored)):
            fac, ref_fac = numerics.spd_factorize(m), numerics.spd_factorize(ref)
            assert np.array_equal(fac._chol, ref_fac._chol)
            assert np.array_equal(fac.inverse(), ref_fac.inverse())
            assert np.array_equal(fac.log_det, ref_fac.log_det)

    def test_rejects_nonfinite(self):
        # a numerical failure, not bad input, and not a nonpositive pivot: no
        # jitter or shift makes an overflowed Hessian finite, so none is tried
        m = np.array([[1.0, 0.0], [0.0, np.inf]])
        with pytest.raises(numerics.NonFiniteMatrixError, match="overflowed"):
            numerics.spd_factorize(m)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 40])
    def test_stack_gives_each_matrix_its_bits_alone(self, n):
        rng = np.random.default_rng(n)
        b = rng.normal(size=(2, 3, n, n))
        stack = b.swapaxes(-1, -2) @ b + np.eye(n)
        stack = 0.5 * (stack + stack.swapaxes(-1, -2))
        fac = numerics.spd_factorize(stack)
        inv, log_det = fac.inverse(), fac.log_det
        assert inv.shape == stack.shape and log_det.shape == (2, 3)
        rhs = rng.normal(size=(2, 3, n, 1))
        solved = fac.solve(rhs)
        for i in np.ndindex(2, 3):
            alone = numerics.spd_factorize(stack[i])
            assert np.array_equal(inv[i], alone.inverse())
            assert log_det[i] == alone.log_det and isinstance(alone.log_det, float)
            np.testing.assert_allclose(stack[i] @ solved[i], rhs[i], atol=1e-10)

    def test_stack_fails_as_its_worst_matrix(self):
        good = np.eye(2)
        with pytest.raises(numerics.NotPositiveDefiniteError):
            numerics.spd_factorize(np.stack([good, np.diag([1.0, -1.0])]))
        with pytest.raises(numerics.NonFiniteMatrixError):
            numerics.spd_factorize(np.stack([good, np.diag([1.0, np.inf])]))


class TestDiagPlusRankOne:
    def test_diagonal_and_products_match_the_dense_matrix(self):
        rng = np.random.default_rng(17)
        for v, k in ((1, 0.0), (4, 2.5), (9, -0.3)):
            d, u = rng.uniform(0.5, 2.0, size=v), rng.normal(size=v)
            sigma = numerics.DiagPlusRankOne(d, k, u)
            dense = np.diag(d) + k * np.outer(u, u)
            np.testing.assert_allclose(sigma.diagonal(), np.diag(dense), rtol=1e-15)
            x, xs = rng.normal(size=v), rng.normal(size=(v, 3))
            np.testing.assert_allclose(sigma @ x, dense @ x, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(sigma @ xs, dense @ xs, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(sigma @ np.eye(v), dense, rtol=1e-15, atol=0)

    def test_numpy_operators_refuse_it(self):
        # elementwise use of a dense matrix's operators would be wrong here
        sigma = numerics.DiagPlusRankOne(np.ones(3), 1.0, np.ones(3))
        with pytest.raises(TypeError):
            np.eye(3) * sigma
        with pytest.raises(TypeError):
            np.sum(sigma + 1.0)


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

    def test_rejects_a_point_that_is_not_a_vector(self):
        with pytest.raises(ValueError, match="1-D point"):
            numerics.finite_diff_gradient(lambda x: 0.0, np.zeros((2, 2)))


class TestUniforms:
    def test_a_seed_fixes_its_draws(self):
        a = numerics.uniforms(7, 200)
        assert a.shape == (200,) and np.all((a >= 0.0) & (a < 1.0))
        assert np.array_equal(a, numerics.uniforms(7, 200))
        assert not np.array_equal(a, numerics.uniforms(8, 200))

    def test_the_stream_is_pythons_for_the_seeds_repr(self):
        # random.Random(str).random(): a sequence Python keeps for a seed
        import random

        draw = random.Random("(42, 3)").random
        assert numerics.uniforms((42, 3), 5).tolist() == [draw() for _ in range(5)]

    def test_int_and_tuple_seeds_never_share_a_stream(self):
        seeds = [5, (5,), (5, 0), (0, 5), 50, (50,)]
        draws = [numerics.uniforms(seed, 20).tolist() for seed in seeds]
        assert all(draws[i] != draws[j] for i in range(len(seeds)) for j in range(i))

    @pytest.mark.parametrize("seed", [-1, (42, -1), 1.5, "7", (1, (2,))])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        with pytest.raises(ValueError, match="seed"):
            numerics.uniforms(seed, 3)


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


class TestSigmoidsAgainstScipy:
    # N(0, 5) and U(-800, 800) samples, signed zeros, the edge of exp's range
    # (|a| = 745) and the largest finite magnitudes
    SWEEP = np.concatenate([
        np.random.default_rng(7).normal(scale=5.0, size=100_000),
        np.random.default_rng(8).uniform(-800.0, 800.0, size=100_000),
        [0.0, -0.0, 745.0, -745.0, 1e308, -1e308],
    ])

    def test_log_sigmoid_is_bitwise_log_expit(self):
        ours = numerics.log_sigmoid(self.SWEEP)
        assert np.array_equal(ours.view(np.int64), sps.log_expit(self.SWEEP).view(np.int64))

    def test_sigmoid_within_four_ulp_of_expit(self):
        # same formula as expit; numpy's vectorized exp may differ in the last bits
        ours = numerics.sigmoid(self.SWEEP)
        assert np.abs(ours.view(np.int64) - sps.expit(self.SWEEP).view(np.int64)).max() <= 4

    @pytest.mark.parametrize("fn", [numerics.sigmoid, numerics.log_sigmoid],
                             ids=lambda f: f.__name__)
    def test_no_runtime_warning(self, fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn(self.SWEEP)
            for a in (745.0, -745.0, 1e308, -1e308):  # a scalar takes numpy's 0-d path
                fn(a)
