"""Data types and exponential-family expectations shared by all models."""

import numpy as np
import pytest
import scipy.stats

from ncvi import numerics
from ncvi.model import (
    ConjugateVariational,
    Document,
    ExpectedStats,
    GaussianVariational,
    LabeledInstance,
    dirichlet_entropy,
)
from ncvi.unigram import UnigramModel

# Psi(10) - Psi(20), the expected log of a Beta(10,10) variable
BETA_10_10_MEAN_LOG = -0.7187714031754276


def dirichlet_mean_log(alpha):
    """E[log z] under Dirichlet(alpha), as the unigram model computes it for
    a single document's q(z)."""
    alpha = np.asarray(alpha, dtype=float)
    model = UnigramModel(alpha.size, [])
    return model.expected_stats(ConjugateVariational(alpha[None, :])).values


class TestFamilyStats:
    """Mean parameters of the conjugate families: Dirichlet E[log z] from the
    unigram model, categorical probabilities from the softmax."""

    def test_dirichlet_symmetric_ones(self):
        np.testing.assert_allclose(dirichlet_mean_log([1.0, 1.0]), [-1.0, -1.0], atol=1e-10)

    def test_dirichlet_2_3_closed_form(self):
        np.testing.assert_allclose(
            dirichlet_mean_log([2.0, 3.0]), [-13.0 / 12.0, -7.0 / 12.0], atol=1e-10
        )

    def test_dirichlet_2_3_monte_carlo(self):
        rng = np.random.default_rng(0)
        draws = rng.dirichlet([2.0, 3.0], size=1_000_000)
        mc = np.log(draws).mean(axis=0)
        np.testing.assert_allclose(dirichlet_mean_log([2.0, 3.0]), mc, atol=1e-3)

    def test_beta_10_10(self):
        values = dirichlet_mean_log([10.0, 10.0])
        assert values[0] == pytest.approx(BETA_10_10_MEAN_LOG, abs=1e-10)
        assert values[1] == pytest.approx(BETA_10_10_MEAN_LOG, abs=1e-10)

    def test_categorical_uniform(self):
        np.testing.assert_allclose(numerics.softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-12)

    def test_categorical_matches_softmax_probabilities(self):
        phi = np.array([1.0, -0.5, 0.2])
        values = numerics.softmax(phi)
        e = np.exp(phi - phi.max())
        np.testing.assert_allclose(values, e / e.sum(), atol=1e-12)
        assert values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dirichlet_mean_log([1.0, 0.0])
        with pytest.raises(ValueError):
            dirichlet_mean_log([1.0, -2.0])


class TestDirichletEntropy:
    def test_matches_scipy(self):
        for alpha in ([1.0, 1.0], [2.0, 3.0], [0.5, 0.5, 0.5], [10.0, 1.0, 5.0]):
            ours = dirichlet_entropy(np.array(alpha))
            ref = scipy.stats.dirichlet(alpha).entropy()
            assert ours == pytest.approx(ref, abs=1e-10)

    def test_stack_matches_per_row_calls(self):
        rng = np.random.default_rng(3)
        phi = rng.gamma(2.0, size=(20, 1000)) + 0.05
        stacked = dirichlet_entropy(phi)
        assert stacked.shape == (20,)
        rows = np.array([dirichlet_entropy(row) for row in phi])
        np.testing.assert_allclose(stacked, rows, rtol=1e-12)
        assert type(dirichlet_entropy(phi[0])) is float

    def test_uniform_two_dim_is_zero(self):
        # Dirichlet(1,1) is uniform on the simplex segment of length 1
        assert dirichlet_entropy(np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


class TestDocument:
    def test_total_and_items(self):
        doc = Document({3: 2, 0: 5})
        assert doc.total() == 7
        assert doc.items() == [(0, 5), (3, 2)]

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            Document({-1: 2})
        with pytest.raises(ValueError):
            Document({0: 0})


class TestLabeledInstance:
    def test_label_property(self):
        pos = LabeledInstance(np.array([1.0]), (1, 0))
        neg = LabeledInstance(np.array([1.0]), (0, 1))
        assert pos.label == 1
        assert neg.label == 0

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError):
            LabeledInstance(np.array([1.0]), (1, 1))
        with pytest.raises(ValueError):
            LabeledInstance(np.array([1.0]), (0, 0))


def test_gaussian_variational_dim():
    q = GaussianVariational(np.zeros(3), np.eye(3))
    assert q.dim == 3


def test_stats_and_conjugate_holders_are_thin():
    s = ExpectedStats(np.array([1.0, 2.0]))
    np.testing.assert_array_equal(s.values, [1.0, 2.0])
    c = ConjugateVariational(None)
    assert c.phi is None
