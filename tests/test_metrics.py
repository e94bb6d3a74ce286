"""Metrics tests: confusion counting, score formulas, AUROC exactness."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vqclass.errors import DataError
from vqclass.metrics import auroc, confusion, full_report, scores_from_confusion


def confusion_counts(tp, tn, fp, fn):
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn}


def as_tuple(cm):
    return cm["tp"], cm["tn"], cm["fp"], cm["fn"]


class TestConfusion:
    def test_perfect_two_samples(self):
        assert as_tuple(confusion([1, 0], [1, 0])) == (1, 1, 0, 0)

    def test_hand_counted_eight_samples(self):
        y_true = [1, 1, 1, 1, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 0, 0, 0, 1]
        cm = confusion(y_true, y_pred)
        assert (cm["tp"], cm["fn"], cm["tn"], cm["fp"]) == (3, 1, 3, 1)

    def test_swapping_positive_class(self):
        y_true = [1, 1, 1, 1, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 0, 0, 0, 1]
        cm = confusion(y_true, y_pred, positive_class=0)
        # symmetric instance: swapped counts coincide
        assert (cm["tp"], cm["fn"], cm["tn"], cm["fp"]) == (3, 1, 3, 1)
        ad = confusion(y_true, y_pred)
        assert confusion_counts(ad["tn"], ad["tp"], ad["fn"], ad["fp"]) == cm

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([1, 0], [1])

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60)
    )
    def test_counts_conserve_total(self, pairs):
        y_true = [a for a, _ in pairs]
        y_pred = [b for _, b in pairs]
        assert sum(confusion(y_true, y_pred).values()) == len(pairs)


class TestScores:
    def test_all_correct(self):
        s = scores_from_confusion(confusion_counts(tp=1, tn=1, fp=0, fn=0), None)
        assert (s["accuracy"], s["sensitivity"], s["specificity"], s["f1"]) == (1.0, 1.0, 1.0, 1.0)
        assert not s["undefined"]

    def test_hand_arithmetic(self):
        s = scores_from_confusion(confusion_counts(tp=3, tn=3, fp=1, fn=1), None)
        assert (s["accuracy"], s["sensitivity"], s["specificity"], s["f1"]) == (
            0.75, 0.75, 0.75, 0.75)

    def test_no_positives_flags_sensitivity(self):
        s = scores_from_confusion(confusion_counts(tp=0, tn=5, fp=0, fn=0), None)
        assert s["sensitivity"] == 0.0
        assert "sensitivity" in s["undefined"]
        assert "f1" in s["undefined"]

    def test_no_negatives_flags_specificity(self):
        s = scores_from_confusion(confusion_counts(tp=4, tn=0, fp=0, fn=1), None)
        assert s["specificity"] == 0.0
        assert s["undefined"] == ["specificity"]

    @given(st.tuples(*[st.integers(0, 10**6)] * 4))
    @settings(max_examples=200)
    def test_exact_rational_arithmetic(self, counts):
        tp, tn, fp, fn = counts
        total = tp + tn + fp + fn
        if total == 0:
            return
        s = scores_from_confusion(confusion_counts(tp=tp, tn=tn, fp=fp, fn=fn), None)
        assert s["accuracy"] == float(Fraction(tp + tn, total))
        if tp + fn:
            assert s["sensitivity"] == float(Fraction(tp, tp + fn))
        if tn + fp:
            assert s["specificity"] == float(Fraction(tn, tn + fp))
        if 2 * tp + fp + fn:
            assert s["f1"] == float(Fraction(2 * tp, 2 * tp + fp + fn))


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_tied(self):
        assert auroc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_hand_case(self):
        assert auroc([1, 0, 1, 0], [0.9, 0.8, 0.3, 0.1]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_non_finite_scores_rejected(self):
        # a NaN score has no rank, so any pair statistic over it is meaningless
        with pytest.raises(DataError, match="finite"):
            auroc([1, 0, 1, 0], [np.nan, 0.2, 0.5, 0.1])

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 6, n) / 5.0
            assert auroc(y, scores) == oracles.auroc_bruteforce(y, scores)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        y = rng.integers(0, 2, 30)
        y[0], y[1] = 0, 1
        scores = rng.uniform(0, 1, 30)
        assert auroc(y, scores) == auroc(y, np.exp(3 * scores))

    def test_complement_sums_to_one_without_ties(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, 25)
        y[0], y[1] = 0, 1
        scores = rng.permutation(25).astype(float)  # distinct scores
        assert auroc(y, scores) + auroc(y, -scores) == 1.0


class TestFullReport:
    def test_cohort_symmetry(self):
        y_true = [1, 1, 1, 0, 0, 1, 0, 0]
        y_pred = [1, 0, 1, 0, 1, 1, 0, 0]
        p = [0.9, 0.4, 0.8, 0.2, 0.7, 0.6, 0.1, 0.3]
        ad, non_ad = full_report(y_true, y_pred, p).values()
        swapped = scores_from_confusion(confusion(y_true, y_pred, positive_class=0), None)
        assert non_ad["accuracy"] == swapped["accuracy"]
        assert non_ad["sensitivity"] == swapped["sensitivity"]
        assert non_ad["specificity"] == swapped["specificity"]
        assert non_ad["f1"] == swapped["f1"]
        assert ad["accuracy"] == non_ad["accuracy"]
        assert ad["auroc"] == non_ad["auroc"]

    def test_single_class_reports_null_auroc(self):
        report = full_report([1, 1], [1, 0], [0.9, 0.2])
        assert report["ad_cohort"]["auroc"] is None
        assert report["non_ad_cohort"]["auroc"] is None

    def test_non_finite_score_is_not_reported_as_single_class(self):
        with pytest.raises(DataError, match="finite"):
            full_report([1, 0, 1, 0], [1, 0, 1, 0], [np.nan, 0.2, 0.6, 0.1])

    def test_dict_shape(self):
        d = full_report([1, 0], [1, 0], [0.8, 0.1])
        assert list(d) == ["ad_cohort", "non_ad_cohort"]
        for cohort in ("ad_cohort", "non_ad_cohort"):
            row = d[cohort]
            # metrics.json's key order
            assert list(row) == [
                "accuracy", "sensitivity", "specificity", "f1",
                "auroc", "confusion", "undefined",
            ]
            assert list(row["confusion"]) == ["tp", "tn", "fp", "fn"]
