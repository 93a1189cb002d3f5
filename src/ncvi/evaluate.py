"""Held-out evaluation: document predictive likelihood, classification
accuracy and average log predictive probability.

Topic-model scoring splits each held-out document into halves with a seeded
shuffle, infers on every first half in one batch, and scores the packed
second halves under the induced predictive distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import engine, numerics
from .model import Document, GaussianVariational, LabeledData, LabeledInstance, pack_corpus

if TYPE_CHECKING:
    from . import ctm

__all__ = [
    "SkipDocument",
    "MetricReport",
    "split_document",
    "heldout_doc_loglik",
    "heldout_corpus",
    "accuracy",
    "accuracy_report",
    "avg_log_pred",
]

DEFAULT_SPLIT_SEED = 42
_PROB_FLOOR = 1e-300


class SkipDocument(Exception):
    """Document too short to participate in the held-out protocol."""


@dataclass(frozen=True)
class MetricReport:
    metric: str
    unit_ids: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.unit_ids) != len(self.values):
            raise ValueError("one value per unit id")

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        if not self.values:
            raise ValueError(f"metric {self.metric!r} has no units to average")
        return float(np.mean(self.values))


def split_document(doc: Document, seed) -> tuple[Document, Document]:
    """Partition a document's token multiset into two shuffled halves.

    Sizes differ by at most one.  Deterministic in the seed, which may be an
    integer or a tuple fed to the generator's seed sequence.
    """
    total = doc.total()
    if total < 2:
        raise SkipDocument(f"document has {total} token(s); need at least 2 to split")
    tokens = np.repeat(
        [idx for idx, _ in doc.items()], [c for _, c in doc.items()]
    )
    rng = np.random.default_rng(seed)
    rng.shuffle(tokens)
    cut = (total + 1) // 2
    first, second = tokens[:cut], tokens[cut:]

    def to_doc(arr) -> Document:
        ids, counts = np.unique(arr, return_counts=True)
        return Document({int(i): int(c) for i, c in zip(ids, counts)})

    return to_doc(first), to_doc(second)


def _score_halves(params, halves, cfg) -> list[float]:
    """Fit every first half in one batch; score each second half under its fit.
    One predictive product per document and np.bincount keep the scores' bits."""
    from . import ctm

    if not halves:
        return []
    fits = ctm.infer_docs(params, [first for first, _ in halves], cfg)
    predictive = np.array([ctm.predictive_distribution(params, state.q_theta) for state, _ in fits])
    ids, counts, doc = pack_corpus([second for _, second in halves])
    # zero predictive mass floors at the representable minimum
    scores = counts * np.log(np.maximum(predictive[doc, ids], _PROB_FLOOR))
    return (np.bincount(doc, scores) / np.bincount(doc, counts)).tolist()


def heldout_doc_loglik(
    params: ctm.CtmParams,
    doc: Document,
    cfg: engine.InferenceConfig | None = None,
    seed=DEFAULT_SPLIT_SEED,
) -> float:
    """Per-word log probability of a document's second half given its first.

    Fits the topic proportions on the first half only, then scores each
    second-half token under the resulting mixture over topics.
    """
    return _score_halves(params, [split_document(doc, seed)], cfg)[0]


def heldout_corpus(
    params: ctm.CtmParams,
    documents: list[Document],
    cfg: engine.InferenceConfig | None = None,
    seed=DEFAULT_SPLIT_SEED,
) -> MetricReport:
    """Score every splittable document; short documents are skipped.

    Each document's shuffle seed is derived from (seed, position), and
    `ctm.infer_docs` fits each first half independently of the batch, so
    scores do not depend on which other documents are present.
    """
    kept, halves = [], []
    for pos, doc in enumerate(documents):
        try:
            halves.append(split_document(doc, (seed, pos)))
        except SkipDocument:
            continue
        kept.append(f"doc{pos}")
    return MetricReport("heldout_loglik", tuple(kept), tuple(_score_halves(params, halves, cfg)))


def accuracy(predictions, truth) -> float:
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or predictions.size == 0:
        raise ValueError("predictions and truth must be equal-length and nonempty")
    return float(np.mean(predictions == truth))


def _per_problem(metric, posteriors, problems, score) -> MetricReport:
    """`score(q, instances)` of each problem; the report mean averages over problems."""
    if len(posteriors) != len(problems):
        raise ValueError("one posterior per problem")
    values = tuple(score(q, instances) for q, instances in zip(posteriors, problems))
    return MetricReport(metric, tuple(f"problem{i}" for i in range(len(values))), values)


def accuracy_report(
    posteriors: list[GaussianVariational],
    problems: list[list[LabeledInstance]],
) -> MetricReport:
    """Per-problem accuracy of label 1 where P(class 1) is at least half."""

    def score(q, instances):
        data = LabeledData.of(instances)
        return accuracy((numerics.sigmoid(data.covariates @ q.mu) >= 0.5).astype(int), data.labels)

    return _per_problem("accuracy", posteriors, problems, score)


def avg_log_pred(
    posteriors: list[GaussianVariational],
    problems: list[list[LabeledInstance]],
) -> MetricReport:
    """Per-problem mean log predictive probability of the true labels."""
    from . import blr

    def score(q, instances):
        return float(np.mean(blr._log_predictive(q.mu, LabeledData.of(instances))))

    return _per_problem("avg_log_pred", posteriors, problems, score)
