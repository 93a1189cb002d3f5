"""Held-out evaluation: document predictive likelihood, classification
accuracy, average log predictive probability, and a paired one-sided t-test.

Topic-model scoring splits each held-out document into halves with a seeded
shuffle, infers on the first half, and scores the second under the induced
predictive distribution.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from . import ctm, engine, numerics
from .blr import predict_loglik
from .model import Document, GaussianVariational, LabeledInstance

__all__ = [
    "SkipDocument",
    "MetricReport",
    "split_document",
    "heldout_doc_loglik",
    "heldout_corpus",
    "predict_labels",
    "accuracy",
    "accuracy_report",
    "avg_log_pred",
    "paired_t_test",
]

DEFAULT_SPLIT_SEED = 42
_PROB_FLOOR = 1e-300
_T_CLAMP = 1e15


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
    first, second = split_document(doc, seed)
    if second.total() == 0:
        raise SkipDocument("second half is empty")
    state, _ = ctm.infer_doc(params, first, cfg)
    predictive = ctm.predictive_distribution(params, state.q_theta)
    total = 0.0
    for idx, count in second.items():
        # zero predictive mass floors at the representable minimum
        total += count * float(np.log(max(predictive[idx], _PROB_FLOOR)))
    return total / second.total()


def heldout_corpus(
    params: ctm.CtmParams,
    documents: list[Document],
    cfg: engine.InferenceConfig | None = None,
    seed=DEFAULT_SPLIT_SEED,
    threads: int = 1,
) -> MetricReport:
    """Score every splittable document; short documents are skipped.

    Each document's shuffle seed is derived from (seed, position) so scores
    do not depend on which other documents are present.
    """

    def score(item):
        pos, doc = item
        try:
            return pos, heldout_doc_loglik(params, doc, cfg, (seed, pos))
        except SkipDocument:
            return pos, None

    items = list(enumerate(documents))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scored = list(pool.map(score, items))
    else:
        scored = [score(it) for it in items]
    kept = [(pos, val) for pos, val in scored if val is not None]
    return MetricReport(
        "heldout_loglik",
        tuple(f"doc{pos}" for pos, _ in kept),
        tuple(val for _, val in kept),
    )


def predict_labels(q_theta: GaussianVariational, instances: list[LabeledInstance]) -> np.ndarray:
    """Label 1 where the predictive probability of class 1 is at least half."""
    scores = np.array([float(q_theta.mu @ inst.covariates) for inst in instances])
    return (numerics.sigmoid(scores) >= 0.5).astype(int)


def accuracy(predictions, truth) -> float:
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or predictions.size == 0:
        raise ValueError("predictions and truth must be equal-length and nonempty")
    return float(np.mean(predictions == truth))


def accuracy_report(
    posteriors: list[GaussianVariational],
    problems: list[list[LabeledInstance]],
) -> MetricReport:
    """Per-problem accuracy; the report mean averages over problems."""
    if len(posteriors) != len(problems):
        raise ValueError("one posterior per problem")
    values = []
    for q, instances in zip(posteriors, problems):
        preds = predict_labels(q, instances)
        truth = np.array([inst.label for inst in instances])
        values.append(accuracy(preds, truth))
    return MetricReport(
        "accuracy",
        tuple(f"problem{i}" for i in range(len(values))),
        tuple(values),
    )


def avg_log_pred(
    posteriors: list[GaussianVariational],
    problems: list[list[LabeledInstance]],
) -> MetricReport:
    """Per-problem mean log predictive probability of the true labels."""
    if len(posteriors) != len(problems):
        raise ValueError("one posterior per problem")
    values = []
    for q, instances in zip(posteriors, problems):
        if not instances:
            raise ValueError("every problem needs at least one test instance")
        values.append(
            float(np.mean([predict_loglik(q, inst) for inst in instances]))
        )
    return MetricReport(
        "avg_log_pred",
        tuple(f"problem{i}" for i in range(len(values))),
        tuple(values),
    )


def paired_t_test(scores_a, scores_b, level: float = 0.05) -> tuple[float, bool]:
    """One-sided paired test of mean(a - b) > 0 at the given level.

    Zero-variance differences clamp the statistic rather than dividing by
    zero: a constant positive shift is significant, a constant nonpositive
    one is not.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length score vectors with at least 2 entries")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    d = a - b
    n = d.size
    sd = float(np.std(d, ddof=1))
    mean = float(np.mean(d))
    if sd == 0.0:
        t_stat = 0.0 if mean == 0.0 else float(np.sign(mean)) * _T_CLAMP
    else:
        t_stat = mean / (sd / np.sqrt(n))
    critical = float(stdtrit(n - 1, 1.0 - level))
    return t_stat, bool(t_stat > critical)
