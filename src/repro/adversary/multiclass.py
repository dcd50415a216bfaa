"""Multi-rate extension and confusion-matrix utilities.

The paper evaluates the simple two-rate case and notes in Section 6 that the
technique "can be easily extended to multiple [rates] by performing more
off-line training".  The classifier in :mod:`repro.adversary.bayes` is already
label-count agnostic; this module adds the bookkeeping that multi-class
evaluation needs and a high-level driver used by the multi-class grid cells
and example.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.adversary.bayes import KDEBayesClassifier
from repro.adversary.detection import DetectionResult, empirical_detection_rate, train_classifier
from repro.adversary.features import FeatureStatistic
from repro.exceptions import AnalysisError


def sorted_labels(labels: "Sequence[str] | set") -> List[str]:
    """Unique class labels in canonical order: numeric when possible.

    Rate-class labels are numeric strings (``"2"``, ``"5.5"``, ``"10"``);
    lexicographic ordering would place ``"10"`` before ``"2"`` and scramble
    every rendered matrix row.  When every label parses as a number, sort by
    value (ties broken lexicographically, so the order stays total and
    deterministic); otherwise fall back to plain string order.
    """
    unique = sorted(set(map(str, labels)))
    try:
        return sorted(unique, key=float)
    except ValueError:
        return unique


def confusion_matrix(
    true_labels: Sequence[str], predicted_labels: Sequence[str]
) -> Dict[str, Dict[str, int]]:
    """Build ``matrix[true][predicted]`` counts from parallel label sequences.

    Rows and columns are ordered by :func:`sorted_labels` — numerically when
    all labels parse as numbers — so multi-rate matrices read low to high.
    """
    if len(true_labels) != len(predicted_labels):
        raise AnalysisError("true and predicted label sequences must have equal length")
    if not true_labels:
        raise AnalysisError("cannot build a confusion matrix from zero trials")
    labels = sorted_labels(set(map(str, true_labels)) | set(map(str, predicted_labels)))
    matrix: Dict[str, Dict[str, int]] = {t: {p: 0 for p in labels} for t in labels}
    for true, predicted in zip(true_labels, predicted_labels):
        matrix[str(true)][str(predicted)] += 1
    return matrix


def per_class_detection_rates(matrix: Mapping[str, Mapping[str, int]]) -> Dict[str, float]:
    """Per-class detection rate (recall) from a confusion matrix."""
    rates: Dict[str, float] = {}
    for true_label, row in matrix.items():
        total = sum(row.values())
        if total == 0:
            raise AnalysisError(f"class {true_label!r} has zero trials")
        rates[true_label] = row.get(true_label, 0) / total
    return rates


def overall_detection_rate(matrix: Mapping[str, Mapping[str, int]]) -> float:
    """Trial-weighted overall detection rate from a confusion matrix."""
    correct = 0
    total = 0
    for true_label, row in matrix.items():
        correct += row.get(true_label, 0)
        total += sum(row.values())
    if total == 0:
        raise AnalysisError("confusion matrix contains zero trials")
    return correct / total


def random_guessing_rate(n_classes: int, priors: Optional[Sequence[float]] = None) -> float:
    """Lower bound on the detection rate for an adversary with no information.

    With equal priors it is ``1 / m``; with unequal priors the best
    uninformed strategy always guesses the most probable class.
    """
    if n_classes < 2:
        raise AnalysisError("need at least two classes")
    if priors is None:
        return 1.0 / n_classes
    prior_array = np.asarray(list(priors), dtype=float)
    if prior_array.size != n_classes or np.any(prior_array <= 0.0):
        raise AnalysisError("priors must be positive and match n_classes")
    if not np.isclose(prior_array.sum(), 1.0):
        raise AnalysisError("priors must sum to 1")
    return float(prior_array.max())


def evaluate_multiclass_attack(
    training_intervals: Mapping[str, np.ndarray],
    test_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    priors: Optional[Mapping[str, float]] = None,
    max_samples_per_class: Optional[int] = None,
) -> DetectionResult:
    """Train and evaluate the attack for an arbitrary number of payload rates.

    Identical to :func:`repro.adversary.detection.evaluate_attack`; it exists
    as a named entry point for the Section 6 extension so that callers read
    naturally, and it validates that the caller really passed
    more than two classes.
    """
    if len(training_intervals) < 3:
        raise AnalysisError(
            "evaluate_multiclass_attack expects more than two payload rates; "
            "use evaluate_attack for the two-rate case"
        )
    classifier: KDEBayesClassifier = train_classifier(
        training_intervals,
        feature,
        sample_size,
        priors=priors,
        max_samples_per_class=max_samples_per_class,
    )
    return empirical_detection_rate(
        classifier,
        test_intervals,
        feature,
        sample_size,
        max_samples_per_class=max_samples_per_class,
    )


__all__ = [
    "sorted_labels",
    "confusion_matrix",
    "per_class_detection_rates",
    "overall_detection_rate",
    "random_guessing_rate",
    "evaluate_multiclass_attack",
]
