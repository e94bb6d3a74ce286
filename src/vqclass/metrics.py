"""Binary-classification evaluation: confusion matrix, the four derived
scores, and rank-based AUROC, reported for both choices of positive class.
``CohortMetrics`` is the one score record: ``scores_from_confusion`` fills
it from a confusion matrix and an AUROC, and ``full_report`` makes one
per positive class."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def swapped(self) -> "ConfusionMatrix":
        """The same predictions counted with the opposite positive class."""
        return ConfusionMatrix(tp=self.tn, tn=self.tp, fp=self.fn, fn=self.fp)


def confusion(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    positive_class: int = 1,
) -> ConfusionMatrix:
    """Count TP/TN/FP/FN with the given label treated as positive."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise DataError(f"need equal-length non-empty label vectors, got {t.shape} vs {p.shape}")
    tpos = t == positive_class
    ppos = p == positive_class
    return ConfusionMatrix(
        tp=int(np.sum(tpos & ppos)),
        tn=int(np.sum(~tpos & ~ppos)),
        fp=int(np.sum(~tpos & ppos)),
        fn=int(np.sum(tpos & ~ppos)),
    )


@dataclass(frozen=True)
class CohortMetrics:
    """One row of the evaluation report, for a fixed positive class."""

    accuracy: float
    sensitivity: float
    specificity: float
    f1: float
    auroc: float | None
    confusion: ConfusionMatrix
    undefined: frozenset[str] = frozenset()


def _ratio(num: int, den: int, name: str, undefined: set[str]) -> float:
    if den == 0:
        undefined.add(name)
        return 0.0
    return num / den


def scores_from_confusion(cm: ConfusionMatrix, auroc: float | None) -> CohortMetrics:
    """Accuracy = (TP+TN)/total, sensitivity = TP/(TP+FN),
    specificity = TN/(TN+FP), F1 = 2TP/(2TP+FP+FN), with ``auroc`` passed
    through."""
    undefined: set[str] = set()
    return CohortMetrics(
        accuracy=_ratio(cm.tp + cm.tn, cm.total, "accuracy", undefined),
        sensitivity=_ratio(cm.tp, cm.tp + cm.fn, "sensitivity", undefined),
        specificity=_ratio(cm.tn, cm.tn + cm.fp, "specificity", undefined),
        f1=_ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn, "f1", undefined),
        auroc=auroc,
        confusion=cm,
        undefined=frozenset(undefined),
    )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their group's average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of each group's last member
    return (last - 0.5 * (counts - 1))[group]


def auroc(y_true: Sequence[int], scores: Sequence[float]) -> float:
    """Pairwise score-ordering statistic, ties credited one half.

    Equals the fraction of (positive, negative) pairs whose positive
    sample scores strictly higher, plus half the tied pairs; computed
    from average ranks, which is exact including ties.
    """
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape or y.ndim != 1 or not np.isfinite(s).all():
        raise DataError(f"need equal-length labels and finite scores, got {y.shape} and {s.shape}")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC undefined: only one class present")
    ranks = _average_ranks(s)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation viewed with each class as the positive one in turn."""

    ad: CohortMetrics
    non_ad: CohortMetrics


def full_report(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    p_ad: Sequence[float],
) -> MetricsReport:
    """Both cohort rows from hard labels plus the class-1 scores.

    AUROC uses the raw class-1 probabilities and is identical for the
    two rows (pair ordering is symmetric under swapping roles); it is
    None when the true labels contain a single class.
    """
    cm = confusion(y_true, y_pred, positive_class=1)
    auc = auroc(y_true, p_ad) if np.unique(y_true).size > 1 else None
    return MetricsReport(scores_from_confusion(cm, auc), scores_from_confusion(cm.swapped(), auc))


def report_to_dict(report: MetricsReport) -> dict:
    """JSON-ready form of the report."""

    def row(m: CohortMetrics) -> dict:  # keys in field order, confusion as tp/tn/fp/fn
        return {**dataclasses.asdict(m), "undefined": sorted(m.undefined)}

    return {"ad_cohort": row(report.ad), "non_ad_cohort": row(report.non_ad)}
