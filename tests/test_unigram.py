"""Reference model: log-normal prior over Dirichlet parameters with
per-document Dirichlet-multinomial observations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncvi import engine, numerics, unigram
from ncvi.engine import InferenceConfig
from ncvi.model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    ModelContract,
    dirichlet_entropy,
)

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

    def test_newton_direction_matches_dense_solve(self):
        # Sherman-Morrison on diag(-h) - c b b' against the dense V x V solve
        rng = np.random.default_rng(13)
        checked = 0
        for seed in range(40):
            v = int(rng.integers(2, 30))
            docs, _ = make_unigram_corpus(seed, vocab_size=v, num_docs=int(rng.integers(1, 6)))
            model = unigram.UnigramModel(v, docs)
            q = GaussianVariational(rng.normal(size=v), 0.5 * np.eye(v))
            stats = model.expected_stats(model.conjugate_update(q))
            theta = q.mu + rng.normal(scale=0.5, size=v)
            neg = -model.f_hessian(theta, stats)
            if np.linalg.eigvalsh(neg)[0] <= 0.0:
                continue
            grad = rng.normal(size=v)
            got = model.newton_direction(theta, stats, grad)
            want = np.linalg.solve(neg, grad)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            checked += 1
        assert checked >= 30

    def test_newton_direction_shifts_indefinite_curvature(self):
        # large positive expected statistics make -H indefinite
        rng = np.random.default_rng(14)
        model = unigram.UnigramModel(5, [Document({0: 1})] * 2)
        theta = rng.uniform(0.0, 1.0, size=5)
        stats = ExpectedStats(np.full(5, 10.0))
        neg = -model.f_hessian(theta, stats)
        assert np.linalg.eigvalsh(neg)[0] < 0.0
        grad = rng.normal(size=5)
        d = model.newton_direction(theta, stats, grad)
        assert grad @ d > 0.0
        shift = (grad - neg @ d) / d  # (-H + shift I) d = grad
        np.testing.assert_allclose(shift, shift[0], rtol=1e-8)
        assert shift[0] > -np.linalg.eigvalsh(neg)[0]

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


class DenseUnigramModel(unigram.UnigramModel):
    """The unigram model on the contract's dense defaults: the reference for
    its O(V) covariance and trace of the Hessian."""

    covariance = ModelContract.covariance
    hessian_trace = ModelContract.hessian_trace


def curvature_points(seed, count):
    """Models and points around the posterior, some with -H indefinite."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        v = int(rng.integers(2, 30))
        docs, _ = make_unigram_corpus(seed + i, vocab_size=v, num_docs=int(rng.integers(1, 6)))
        model = unigram.UnigramModel(v, docs)
        q = GaussianVariational(rng.normal(size=v), 0.5 * np.eye(v))
        stats = model.expected_stats(model.conjugate_update(q))
        yield model, q.mu + rng.normal(scale=0.5, size=v), stats


def dense_or_error(covariance):
    try:
        return covariance()
    except numerics.NotPositiveDefiniteError as err:
        return err


class TestStructuredCurvature:
    """The O(V) covariance and Tr{H Sigma} against the contract's dense
    defaults, within 1e-12 relative."""

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_covariance_matches_dense_default(self, diagonal):
        checked = 0
        for model, theta, stats in curvature_points(20, 40):
            for shift in (0.0, 0.37):
                want = dense_or_error(
                    lambda: ModelContract.covariance(model, theta, stats, shift, diagonal)
                )
                got = dense_or_error(lambda: model.covariance(theta, stats, shift, diagonal))
                # both paths raise at exactly the same points
                assert isinstance(got, Exception) == isinstance(want, Exception)
                if isinstance(want, Exception):
                    continue
                (sigma, log_det), (dense, dense_log_det) = got, want
                scale = np.max(np.abs(dense))
                assert np.max(np.abs(sigma @ np.eye(model.dim) - dense)) <= 1e-12 * scale
                assert np.max(np.abs(sigma.diagonal() - np.diag(dense))) <= 1e-12 * scale
                assert log_det == pytest.approx(dense_log_det, rel=1e-12, abs=1e-12)
                checked += 1
        assert checked >= 40

    def test_indefinite_points_raise_on_both_paths(self):
        # positive expected statistics make -H indefinite, negative ones
        # keep it positive definite
        rng = np.random.default_rng(21)
        raised = 0
        for _ in range(30):
            v = int(rng.integers(2, 8))
            model = unigram.UnigramModel(v, [Document({0: 1})] * 2)
            theta = rng.uniform(-1.0, 1.0, size=v)
            stats = ExpectedStats(rng.uniform(-20.0, 5.0, size=v))
            for shift, diagonal in ((0.0, False), (0.0, True), (0.5, False)):
                want = dense_or_error(
                    lambda: ModelContract.covariance(model, theta, stats, shift, diagonal)
                )
                got = dense_or_error(lambda: model.covariance(theta, stats, shift, diagonal))
                assert isinstance(got, Exception) == isinstance(want, Exception)
                raised += isinstance(got, Exception)
        assert 20 <= raised <= 70

    def test_hessian_trace_matches_dense_default(self):
        rng = np.random.default_rng(22)
        checked = 0
        for model, theta, stats in curvature_points(23, 30):
            a = rng.normal(size=(model.dim, model.dim))
            sigmas = [a @ a.T / model.dim + np.eye(model.dim)]
            try:
                sigmas.append(model.covariance(theta, stats, 0.0, False)[0])
            except numerics.NotPositiveDefiniteError:
                pass
            for sigma in sigmas:
                dense = sigma @ np.eye(model.dim)
                want = ModelContract.hessian_trace(model, theta, stats, dense)
                # dense and structured sigma alike go through the O(V) path
                assert model.hessian_trace(theta, stats, sigma) == pytest.approx(want, rel=1e-12)
                checked += 1
        assert checked >= 45

    @staticmethod
    def structured_and_dense(seed, method):
        """unigram.infer against the engine on DenseUnigramModel, default
        config: every refit reaches grad_tol on both paths, so they differ
        by rounding only.  Before the Armijo test allowed for the value's
        rounding, a last step gaining less than that rounding was taken on
        one path and refused on the other (mu 8e-9 apart)."""
        docs, _ = make_unigram_corpus(seed, vocab_size=30, num_docs=10, tokens_per_doc=60)
        cfg = InferenceConfig(method=method)
        q, _, trace = unigram.infer(docs, 30, cfg)
        model = DenseUnigramModel(30, docs)
        q0 = GaussianVariational(np.zeros(30), np.eye(30))
        dense_q, _, dense_trace = engine.run_coordinate_ascent(
            model, None, q0, model.conjugate_update(q0), cfg
        )
        assert isinstance(dense_q.sigma, np.ndarray)
        assert len(trace) == len(dense_trace) >= 3
        np.testing.assert_allclose(q.mu, dense_q.mu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q.sigma.diagonal(), np.diag(dense_q.sigma), rtol=1e-12)
        np.testing.assert_allclose(
            [r.objective for r in trace.records],
            [r.objective for r in dense_trace.records],
            rtol=1e-12,
        )

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_inference_matches_dense_defaults(self, method):
        self.structured_and_dense(24, method)

    def test_inference_matches_dense_defaults_on_a_second_corpus(self):
        # under delta this corpus stalls in the line search on both paths
        self.structured_and_dense(25, "laplace")

    @pytest.mark.parametrize("method", ["laplace", "delta"])
    def test_large_vocabulary_allocates_no_vocab_squared_matrix(self, monkeypatch, method):
        # one 5000 x 5000 float64 matrix alone would take 200 MB
        docs, _ = make_unigram_corpus(25, vocab_size=5000, num_docs=20, tokens_per_doc=200)
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 2)
        cfg = InferenceConfig(method=method)
        tracemalloc.start()
        try:
            q, _, trace = unigram.infer(docs, 5000, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        assert len(trace) >= 1
        assert np.all(np.isfinite(np.exp(q.mu))) and np.all(q.sigma.diagonal() > 0.0)


class TestSharedTerms:
    """UnigramModel takes the terms that depend on theta alone once per theta
    and holds them for the last theta, keyed by value."""

    CALLS = {
        "f_value_grad": lambda m, t, s, sig: m.f_value_grad(t, s),
        "f_hessian": lambda m, t, s, sig: m.f_hessian(t, s),
        "covariance": lambda m, t, s, sig: [
            a @ np.eye(len(t)) if isinstance(a, numerics.DiagPlusRankOne) else a
            for a in m.covariance(t, s, 0.5, False)],
        "hessian_trace": lambda m, t, s, sig: m.hessian_trace(t, s, sig),
        "newton_direction": lambda m, t, s, sig: m.newton_direction(t, s, np.ones(len(t))),
        "trace_grad": lambda m, t, s, sig: m.trace_grad(t, sig, s),
    }

    def test_every_method_equals_a_fresh_models_bit_for_bit(self):
        rng = np.random.default_rng(31)
        docs, _ = make_unigram_corpus(31, vocab_size=6, num_docs=4)
        model = unigram.UnigramModel(6, docs)
        stats = ExpectedStats(-rng.uniform(5.0, 20.0, size=6))
        a = rng.normal(size=(6, 6))
        sigma = a @ a.T / 6 + np.eye(6)
        theta1, theta2 = rng.normal(scale=0.5, size=6), rng.normal(scale=0.5, size=6)
        for step, theta in enumerate((theta1, theta2, theta1, theta1)):
            if step == 3:  # the point it was last called at, changed in place
                theta1[2] += 0.25
            for name, call in self.CALLS.items():
                got = call(model, theta, stats, sigma)
                want = call(unigram.UnigramModel(6, docs), theta.copy(), stats, sigma)
                if not isinstance(got, (tuple, list)):
                    got, want = [got], [want]
                for g, w in zip(got, want, strict=True):
                    np.testing.assert_array_equal(g, w, err_msg=f"{name} at step {step}")

    def test_one_delta_evaluation_takes_psi_on_the_rates_once(self, monkeypatch):
        # the profile's value, gradient and direction, then the refit's closing
        # covariance and the monitor's f and Tr{H Sigma}, all at one theta
        v = 50
        docs, _ = make_unigram_corpus(32, vocab_size=v, num_docs=10)
        model = unigram.UnigramModel(v, docs)
        theta = np.random.default_rng(32).normal(scale=0.3, size=v)
        stats = model.expected_stats(
            model.conjugate_update(GaussianVariational(np.zeros(v), np.eye(v))))
        sizes, real = [], numerics.digamma
        monkeypatch.setattr(numerics, "digamma", lambda x: sizes.append(np.size(x)) or real(x))
        value, _, _ = engine._ModelRows(model).ascent([stats], 0.0)(theta[None], np.arange(1))
        assert np.isfinite(value[0])  # the delta profile is defined here
        sigma, _ = model.covariance(theta, stats, 0.0, False)
        model.f_value_grad(theta, stats)
        model.hessian_trace(theta, stats, sigma)
        assert sum(size >= v for size in sizes) == 1


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

    @pytest.mark.parametrize("big", [701.0, 800.0])
    def test_overflowed_trial_reports_minus_infinity(self, big):
        # 701 passes the guard while exp is still finite; 800 overflows exp
        model = unigram.UnigramModel(2, [Document({0: 1})])
        theta, stats = np.array([big, 0.0]), ExpectedStats(np.zeros(2))
        value, grad = model.f_value_grad(theta, stats)
        assert value == -np.inf
        assert np.all(np.isnan(grad))

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

    def test_delta_reproducer_converges(self):
        docs, _ = make_unigram_corpus(1, 100, 50, tokens_per_doc=200)
        q, _, trace = unigram.infer(docs, 100, InferenceConfig(method="delta"))
        assert trace.converged
        assert np.all(np.isfinite(q.mu)) and np.all(q.sigma.diagonal() > 0.0)

    def test_laplace_reproducer_converges(self):
        # 135 plain maps; the outer loop's extrapolation takes about 30
        docs, _ = make_unigram_corpus(1, 100, 200, tokens_per_doc=200)
        q, _, trace = unigram.infer(docs, 100)
        assert trace.converged and trace.records[-1].iteration < 100
        assert np.all(np.isfinite(q.mu)) and np.all(q.sigma.diagonal() > 0.0)

    def test_single_token_documents_run_to_the_cap(self):
        # one token per document leaves q(z) barely tied to the counts, so
        # the alternation crawls even with extrapolation
        docs, _ = make_unigram_corpus(1, 5, 500, tokens_per_doc=1)
        q, _, trace = unigram.infer(docs, 5, InferenceConfig(method="delta"))
        assert not trace.converged and trace.records[-1].iteration == 100
        assert trace.records[-1].mean_change >= InferenceConfig().conv_tol
        assert np.all(np.isfinite(q.mu)) and np.all(q.sigma.diagonal() > 0.0)

    def test_underflowed_rate_is_a_numerical_failure(self):
        # exp(-800) is 0 in double precision; term 1 has no count
        model = unigram.UnigramModel(2, [Document({0: 3})])
        q = GaussianVariational(np.array([0.0, -800.0]), np.eye(2))
        with pytest.raises(unigram.RateUnderflowError, match="document 0, term 1") as err:
            model.conjugate_update(q)
        assert isinstance(err.value, ArithmeticError)
        assert not isinstance(err.value, ValueError)

    def test_underflow_names_the_first_entry_in_row_major_order(self):
        # terms 1 and 2 underflow; document 0 uses term 1 but not term 2
        model = unigram.UnigramModel(3, [Document({0: 1, 1: 1}), Document({0: 2})])
        q = GaussianVariational(np.array([0.0, -800.0, -800.0]), np.eye(3))
        with pytest.raises(unigram.RateUnderflowError, match="document 0, term 2"):
            model.conjugate_update(q)


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


# documents over terms 2.. of the vocabulary: term 0 is in none and term 1 in
# every one; an empty document appended leaves term 1 short of one
counts_st = st.lists(st.lists(st.integers(0, 400), min_size=2, max_size=6), min_size=1,
                     max_size=5).map(lambda rows: [[0, 1 + r[0], *r[1:]] for r in rows])


def structured_and_reference(counts, log_rates, empty_doc):
    """The model, the phi its q(z) at rates exp(log_rates) densifies to, that
    q(z)'s statistics, entropy and model terms, each again as the dense
    reference on phi, and the sum of the magnitudes of the reference's terms:
    its sums can cancel far below their terms, where no bound relative to the
    result itself holds."""
    width = max(len(r) for r in counts)
    x = np.array([r + [0] * (width - len(r)) for r in counts] + [[0] * width] * empty_doc, float)
    rates = np.exp(np.resize(log_rates, width))
    model = unigram.UnigramModel(
        width, [Document({i: int(c) for i, c in enumerate(row) if c}) for row in x])
    q_z = model.conjugate_update(GaussianVariational(np.log(rates), np.zeros((width, width))))
    phi = np.asarray(q_z.phi)
    np.testing.assert_allclose(phi, rates + x, rtol=1e-15)
    sums = phi.sum(axis=1)[:, None]
    psi, psi_sum = numerics.digamma(phi), numerics.digamma(sums)
    e_log_z = unigram._expected_log_z(ConjugateVariational(phi))
    got = (model.expected_stats(q_z).values, model.qz_entropy(q_z), model.qz_model_terms(q_z))
    want = (e_log_z.sum(axis=0), float(np.sum(dirichlet_entropy(phi))),
            float(np.sum((x - 1.0) * e_log_z)))
    scale = (
        np.sum(np.abs(psi) + np.abs(psi_sum), axis=0),
        float(np.sum(np.abs(numerics.log_gamma(phi)) + np.abs((phi - 1.0) * psi))
              + np.sum(np.abs(numerics.log_gamma(sums)) + np.abs((sums - width) * psi_sum))),
        float(np.sum(np.abs(x - 1.0) * (np.abs(psi) + np.abs(psi_sum)))),
    )
    return model, phi, got, want, scale


class TestDirichletRows:
    """conjugate_update's q(z), the shared rates plus the corpus's counts,
    against the dense reference on the phi it densifies to: within 1e-12 of
    the magnitude of the terms the reference sums."""

    @settings(max_examples=150, deadline=None)
    @given(counts=counts_st, log_rates=st.lists(st.floats(np.log(1e-12), np.log(1e12)),
                                                min_size=1, max_size=8),
           empty_doc=st.booleans())
    # a tiny rate on the term every document uses, where D g(b) less a
    # correction cancels; all rates tiny; and huge rates beside tiny ones
    @example(counts=[[0, 3, 1], [0, 1, 0, 5]], log_rates=[0.0, np.log(1e-12), 1.0],
             empty_doc=False)
    @example(counts=[[0, 1, 2], [0, 7]], log_rates=[np.log(1e-12)], empty_doc=False)
    @example(counts=[[0, 400, 400, 400]], log_rates=[np.log(1e12), np.log(1e-12)],
             empty_doc=True)
    def test_matches_dense_reference(self, counts, log_rates, empty_doc):
        _, _, got, want, scale = structured_and_reference(counts, log_rates, empty_doc)
        for value, reference, terms in zip(got, want, scale):
            assert np.all(np.abs(np.subtract(value, reference)) <= 1e-12 * terms)

    def test_dense_phi_is_the_reference(self):
        model, phi, _, want, _ = structured_and_reference([[0, 2, 1], [0, 1, 0, 4]],
                                                          [0.3, -2.0], True)
        dense = ConjugateVariational(phi)
        assert np.array_equal(model.expected_stats(dense).values, want[0])
        assert model.qz_entropy(dense) == want[1]
        assert model.qz_model_terms(dense) == want[2]


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
            np.asarray(qz.phi)[0], [E_HALF + 2.0, E_HALF, E_HALF + 1.0], atol=1e-12
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

    def test_monitor_nondecreasing_on_model_consistent_data(self, monkeypatch):
        monkeypatch.setattr(InferenceConfig, "max_outer_iters", 20)
        docs, _ = make_unigram_corpus(7, vocab_size=5, num_docs=4)
        cfg = InferenceConfig(conv_tol=1e-12)
        _, _, trace = unigram.infer(docs, 5, cfg)
        objs = [r.objective for r in trace.records]
        assert (np.diff(objs) >= -1e-6).all()

    def test_posterior_concentrates_with_data(self):
        few, _ = make_unigram_corpus(8, vocab_size=3, num_docs=1, tokens_per_doc=10)
        many, _ = make_unigram_corpus(8, vocab_size=3, num_docs=40, tokens_per_doc=50)
        q_few, _, _ = unigram.infer(few, 3)
        q_many, _, _ = unigram.infer(many, 3)
        assert q_many.sigma.diagonal().sum() < q_few.sigma.diagonal().sum()

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            unigram.UnigramModel(1, [Document({0: 1})])

    def test_counts_past_the_int64_range(self):
        # the corpus parser accepts any positive integer count
        model = unigram.UnigramModel(2, [Document({0: 10 ** 137, 1: 10 ** 137})] * 3)
        q_z = model.conjugate_update(GaussianVariational(np.zeros(2), np.eye(2)))
        np.testing.assert_allclose(np.asarray(q_z.phi), np.full((3, 2), 1e137), rtol=1e-15)
        assert np.all(np.isfinite(model.expected_stats(q_z).values))

    def test_rejects_term_outside_vocabulary(self):
        with pytest.raises(ValueError, match="term index 5 outside vocabulary 3"):
            unigram.UnigramModel(3, [Document({0: 1}), Document({1: 2, 5: 1})])
