"""Held-out scoring and classification metrics."""

import numpy as np
import pytest

from ncvi import ctm, evaluate
from ncvi.model import Document, GaussianVariational

from conftest import make_ctm_corpus, make_ctm_params, make_instance


class TestSplitDocument:
    def test_even_total_splits_in_half(self):
        first, second = evaluate.split_document(Document({0: 2, 1: 2}), 0)
        assert first.total() == 2
        assert second.total() == 2

    def test_odd_total_gives_first_half_the_extra_token(self):
        first, second = evaluate.split_document(Document({0: 5}), 0)
        assert first.total() == 3
        assert second.total() == 2

    def test_deterministic_in_seed(self):
        doc = Document({0: 3, 1: 4, 2: 1})
        a1, b1 = evaluate.split_document(doc, 7)
        a2, b2 = evaluate.split_document(doc, 7)
        assert a1.counts == a2.counts and b1.counts == b2.counts
        a3, _ = evaluate.split_document(doc, 8)
        assert any(evaluate.split_document(doc, s)[0].counts != a1.counts
                   for s in range(20, 40)) or a3.counts != a1.counts

    def test_halves_partition_the_tokens(self):
        doc = Document({0: 3, 2: 5, 7: 2})
        first, second = evaluate.split_document(doc, 3)
        merged = dict(first.counts)
        for idx, c in second.counts.items():
            merged[idx] = merged.get(idx, 0) + c
        assert merged == doc.counts

    def test_shuffle_is_a_permutation_of_the_tokens(self):
        doc = Document({0: 3, 2: 5, 7: 2, 9: 1})
        tokens = sorted(i for i, c in doc.items() for _ in range(c))
        orders = set()
        for seed in range(20):
            first, second = evaluate.split_document(doc, seed)
            halves = [i for half in (first, second) for i, c in half.items() for _ in range(c)]
            assert sorted(halves) == tokens
            orders.add(tuple(sorted(first.counts.items())))
        assert len(orders) > 5

    def test_heldout_corpus_scores_the_halves_of_seed_and_position(self, monkeypatch):
        # perfbench's oracle splits document pos with (42, pos) to score the
        # same second halves as eval-ctm; a skipped document keeps its position
        params = make_ctm_params(0, 2, 12)
        docs = make_ctm_corpus(1, params, 5, tokens_per_doc=20)
        docs[2:2] = [Document({3: 1})]
        scored = []
        monkeypatch.setattr(evaluate, "_score_halves",
                            lambda p, halves, cfg: scored.extend(halves) or [0.0] * len(halves))
        report = evaluate.heldout_corpus(params, docs)
        assert evaluate.DEFAULT_SPLIT_SEED == 42
        want = [evaluate.split_document(d, (42, pos)) for pos, d in enumerate(docs) if pos != 2]
        assert report.unit_ids == ("doc0", "doc1", "doc3", "doc4", "doc5")
        assert [(a.counts, b.counts) for a, b in scored] == [(a.counts, b.counts) for a, b in want]

    def test_too_short_documents_are_skipped(self):
        with pytest.raises(evaluate.SkipDocument):
            evaluate.split_document(Document({0: 1}), 0)
        with pytest.raises(evaluate.SkipDocument):
            evaluate.split_document(Document({}), 0)


class TestHeldoutLoglik:
    def test_single_topic_scores_under_that_topic(self):
        topics = np.array([[0.2, 0.3, 0.5]])
        params = ctm.CtmParams(topics, np.zeros(1), np.eye(1))
        doc = Document({0: 4, 1: 4, 2: 4})
        score = evaluate.heldout_doc_loglik(params, doc, seed=0)
        _, second = evaluate.split_document(doc, 0)
        expected = sum(c * np.log(topics[0, i]) for i, c in second.items())
        assert score == pytest.approx(expected / second.total(), abs=1e-12)

    def test_uniform_topics_score_log_inverse_vocabulary(self):
        v = 8
        params = ctm.CtmParams(np.full((2, v), 1.0 / v), np.zeros(2), np.eye(2))
        docs = make_ctm_corpus(1, make_ctm_params(0, 2, v), 5, tokens_per_doc=20)
        report = evaluate.heldout_corpus(params, docs)
        for val in report.values:
            assert val == pytest.approx(np.log(1.0 / v), abs=1e-10)

    def test_generating_params_beat_corrupted_params(self):
        params = make_ctm_params(2, 3, 20)
        docs = make_ctm_corpus(3, params, 12, tokens_per_doc=60)
        good = evaluate.heldout_corpus(params, docs).mean
        rng = np.random.default_rng(4)
        bad_topics = rng.dirichlet(np.ones(20), size=3)
        bad = evaluate.heldout_corpus(
            ctm.CtmParams(bad_topics, params.prior_mean, params.prior_cov), docs
        ).mean
        assert good > bad

    def test_scores_do_not_depend_on_other_documents(self):
        # the split seed keys on (seed, position), so a document keeps its
        # score when the rest of the corpus changes
        params = make_ctm_params(5, 2, 10)
        docs = make_ctm_corpus(6, params, 4, tokens_per_doc=20)
        full = evaluate.heldout_corpus(params, docs)
        prefix = evaluate.heldout_corpus(params, docs[:2])
        assert prefix.unit_ids == full.unit_ids[:2]
        assert prefix.values == full.values[:2]

    def test_short_documents_drop_out_of_the_report(self):
        params = make_ctm_params(7, 2, 6)
        docs = [Document({0: 6, 1: 6}), Document({2: 1}), Document({})]
        report = evaluate.heldout_corpus(params, docs)
        assert report.unit_ids == ("doc0",)

    def test_corpus_with_nothing_to_split_gives_an_empty_report(self):
        params = make_ctm_params(7, 2, 6)
        report = evaluate.heldout_corpus(params, [Document({2: 1}), Document({}), Document({0: 1})])
        assert report.unit_ids == () and report.values == ()


class TestClassificationMetrics:
    def test_accuracy_extremes(self):
        assert evaluate.accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert evaluate.accuracy([1, 0, 1], [0, 1, 0]) == 0.0
        with pytest.raises(ValueError):
            evaluate.accuracy([1, 0], [1])
        with pytest.raises(ValueError):
            evaluate.accuracy([], [])

    def test_predict_labels_thresholds_at_half(self):
        # through accuracy_report: a score of exactly 0 predicts label 1
        q = GaussianVariational(np.array([1.0, -1.0]), np.eye(2))
        positive, negative, tie = [2.0, 0.0], [0.0, 2.0], [0.0, 0.0]
        problems = [
            [make_instance(positive, 1), make_instance(negative, 0), make_instance(tie, 1)],
            [make_instance(tie, 0)],
            [make_instance(positive, 0), make_instance(negative, 1)],
        ]
        report = evaluate.accuracy_report([q] * 3, problems)
        assert report.values == (1.0, 0.0, 0.0)

    def test_accuracy_report_per_problem(self):
        q = GaussianVariational(np.array([1.0]), np.eye(1))
        right = [make_instance([1.0], 1), make_instance([-1.0], 0)]
        half = [make_instance([1.0], 1), make_instance([1.0], 0)]
        report = evaluate.accuracy_report([q, q], [right, half])
        assert report.metric == "accuracy"
        assert report.unit_ids == ("problem0", "problem1")
        assert report.values == (1.0, 0.5)
        assert report.mean == pytest.approx(0.75)

    def test_avg_log_pred_of_uninformative_posterior(self):
        q = GaussianVariational(np.zeros(2), np.eye(2))
        instances = [make_instance([1.0, 2.0], 1), make_instance([-1.0, 0.5], 0)]
        report = evaluate.avg_log_pred([q], [instances])
        assert report.values[0] == pytest.approx(np.log(0.5), abs=1e-12)

    def test_report_validation(self):
        q = GaussianVariational(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            evaluate.accuracy_report([q], [])
        with pytest.raises(ValueError):
            evaluate.avg_log_pred([q], [[]])
        with pytest.raises(ValueError):
            evaluate.MetricReport("m", ("u0",), (1.0, 2.0))
        with pytest.raises(ValueError):
            evaluate.MetricReport("m", (), ()).mean
