"""Binary-classification evaluation: confusion counts, the four derived
scores, and rank-based AUROC, reported for both choices of positive class.
Everything is a plain dict: ``confusion`` counts, ``scores_from_confusion``
makes one report row from the counts and an AUROC, and ``full_report``
returns the ``metrics.json`` record itself, one row per positive class."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DataError


def confusion(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    positive_class: int = 1,
) -> dict:
    """TP/TN/FP/FN counts, as {"tp", "tn", "fp", "fn"}, with the given
    label treated as positive."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1 or t.size == 0:
        raise DataError(f"need equal-length non-empty label vectors, got {t.shape} vs {p.shape}")
    tpos = t == positive_class
    ppos = p == positive_class
    return {
        "tp": int(np.sum(tpos & ppos)),
        "tn": int(np.sum(~tpos & ~ppos)),
        "fp": int(np.sum(~tpos & ppos)),
        "fn": int(np.sum(tpos & ~ppos)),
    }


def scores_from_confusion(counts: dict, auroc: float | None) -> dict:
    """One report row: accuracy = (TP+TN)/total, sensitivity = TP/(TP+FN),
    specificity = TN/(TN+FP) and F1 = 2TP/(2TP+FP+FN), then ``auroc``, the
    counts, and the sorted names of the scores whose denominator is 0
    (reported as 0.0)."""
    tp, tn, fp, fn = counts["tp"], counts["tn"], counts["fp"], counts["fn"]
    ratios = {
        "accuracy": (tp + tn, tp + tn + fp + fn),
        "sensitivity": (tp, tp + fn),
        "specificity": (tn, tn + fp),
        "f1": (2 * tp, 2 * tp + fp + fn),
    }
    row: dict = {name: num / den if den else 0.0 for name, (num, den) in ratios.items()}
    row.update(auroc=auroc, confusion=counts,
               undefined=sorted(name for name, (_, den) in ratios.items() if not den))
    return row


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


def full_report(
    y_true: Sequence[int],
    y_pred: Sequence[int],
    p_ad: Sequence[float],
) -> dict:
    """The ``metrics.json`` record, {"ad_cohort": row, "non_ad_cohort": row},
    from 0/1 labels, hard predictions and the class-1 scores.

    AUROC uses the raw class-1 probabilities and is identical for the
    two rows (pair ordering is symmetric under swapping roles); it is
    None when the true labels contain a single class.
    """
    ad = confusion(y_true, y_pred, positive_class=1)
    non_ad = confusion(y_true, y_pred, positive_class=0)
    t = np.asarray(y_true)  # confusion checked it is 1-D and non-empty
    # not np.unique, whose np.ma.is_masked check imports numpy.ma: 16-18 ms of a fresh process
    auc = auroc(t, p_ad) if np.any(t != t[0]) else None
    return {"ad_cohort": scores_from_confusion(ad, auc),
            "non_ad_cohort": scores_from_confusion(non_ad, auc)}
