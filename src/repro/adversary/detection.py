"""The full attack pipeline and empirical detection-rate measurement.

This module turns raw PIAT captures into the numbers the paper plots:

1. :func:`slice_into_samples` — cut a long captured interval stream into
   samples of the size the adversary will use at run time, as the rows of
   one view of the capture.
2. :func:`extract_feature_samples` — summarise every sample with a feature
   statistic in one row-wise call, producing the labelled training/test
   feature values.
3. :func:`train_classifier` — off-line training of the KDE Bayes classifier.
4. :func:`empirical_detection_rate` — batched run-time classification of
   held-out samples and the detection rate (the paper's security metric: the
   probability that the adversary identifies the payload rate correctly).
5. :func:`detection_rates` — a sweep cell's attacks, every (feature, sample
   size) classifier scored in one batched pass with the same results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.adversary.bayes import KDEBayesClassifier, bayes_decisions, training_rows
from repro.adversary.features import FeatureStatistic
from repro.exceptions import AnalysisError
from repro.stats.bootstrap import BootstrapResult, bootstrap_detection_rate_ci
from repro.stats.kde import kde_log_densities, rule_bandwidths, silverman_bandwidths


def slice_into_samples(
    intervals: np.ndarray,
    sample_size: int,
    max_samples: Optional[int] = None,
) -> np.ndarray:
    """Cut an interval stream into consecutive samples of ``sample_size``.

    The samples are the rows of a read-only ``(n_samples, sample_size)``
    view of the capture: no interval is copied.

    Parameters
    ----------
    intervals:
        Captured PIATs in observation order.
    sample_size:
        Number of intervals per sample (the paper's x-axis in Figure 4(b)).
    max_samples:
        Optional cap on the number of samples returned (at least one sample
        is always returned).
    """
    array = np.asarray(intervals, dtype=float)
    if array.ndim != 1:
        raise AnalysisError("intervals must be one-dimensional")
    if sample_size < 1:
        raise AnalysisError("sample_size must be >= 1")
    if array.size < sample_size:
        raise AnalysisError(
            f"capture holds {array.size} intervals; cannot form a sample of {sample_size}"
        )
    n_samples = array.size // sample_size
    if max_samples is not None:
        n_samples = min(n_samples, max(max_samples, 1))
    samples = array[: n_samples * sample_size].reshape(n_samples, sample_size)
    samples.flags.writeable = False
    return samples


def extract_feature_samples(
    intervals: np.ndarray,
    feature: FeatureStatistic,
    sample_size: int,
    max_samples: Optional[int] = None,
) -> np.ndarray:
    """Feature values of consecutive samples cut from an interval stream."""
    samples = slice_into_samples(intervals, sample_size, max_samples=max_samples)
    return feature.compute_rows(samples)


def training_features(
    training_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    max_samples_per_class: Optional[int] = None,
) -> Dict[str, np.ndarray]:
    """Labelled training feature values, one array per class label.

    Raises :class:`AnalysisError` when a class yields fewer than two samples.
    """
    features_per_class: Dict[str, np.ndarray] = {}
    for label, intervals in training_intervals.items():
        values = extract_feature_samples(
            intervals, feature, sample_size, max_samples=max_samples_per_class
        )
        if values.size < 2:
            raise AnalysisError(
                f"class {label!r}: only {values.size} training samples of size "
                f"{sample_size} could be formed; capture more traffic"
            )
        features_per_class[str(label)] = values
    return features_per_class


def train_classifier(
    training_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    priors: Optional[Mapping[str, float]] = None,
    max_samples_per_class: Optional[int] = None,
    bandwidth="silverman",
) -> KDEBayesClassifier:
    """Off-line training from labelled interval captures.

    ``training_intervals`` maps each class label (payload rate) to a long
    PIAT capture taken while that rate was active — exactly what the paper's
    adversary obtains by reconstructing the padding system in a lab.
    """
    features_per_class = training_features(
        training_intervals,
        feature,
        sample_size,
        max_samples_per_class=max_samples_per_class,
    )
    return KDEBayesClassifier(bandwidth=bandwidth).fit(features_per_class, priors=priors)


@dataclass
class DetectionResult:
    """Outcome of evaluating the attack on held-out samples.

    Attributes
    ----------
    feature_name:
        Which feature statistic the adversary used.
    sample_size:
        Number of PIATs per classified sample.
    detection_rate:
        Fraction of test samples whose payload rate was identified correctly
        (the paper's security metric).
    per_class_rates:
        Detection rate conditioned on the true class.
    confusion:
        ``confusion[true][predicted]`` counts.
    trials:
        Total number of classified samples.
    correct_flags:
        Per-trial correctness, in evaluation order (used for bootstrap CIs).
    """

    feature_name: str
    sample_size: int
    detection_rate: float
    per_class_rates: Dict[str, float]
    confusion: Dict[str, Dict[str, int]]
    trials: int
    correct_flags: List[bool] = field(default_factory=list, repr=False)

    def confidence_interval(
        self, confidence: float = 0.95, rng: Optional[np.random.Generator] = None
    ) -> BootstrapResult:
        """Bootstrap confidence interval of the detection rate."""
        return bootstrap_detection_rate_ci(self.correct_flags, confidence=confidence, rng=rng)


def empirical_detection_rate(
    classifier: KDEBayesClassifier,
    test_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    max_samples_per_class: Optional[int] = None,
) -> DetectionResult:
    """Run-time classification of held-out captures and detection-rate measurement.

    Every test value of every class is classified in one batched
    :meth:`KDEBayesClassifier.decide` call.
    """
    labels = sorted(str(label) for label in test_intervals)
    values_per_class = []
    for label in labels:
        values = extract_feature_samples(
            test_intervals[label],
            feature,
            sample_size,
            max_samples=max_samples_per_class,
        )
        if values.size == 0:
            raise AnalysisError(f"class {label!r}: no test samples could be formed")
        values_per_class.append(values)
    decisions = classifier.decide(np.concatenate(values_per_class))
    classes = classifier.labels
    sizes = [values.size for values in values_per_class]
    truth = [classes.index(label) if label in classes else -1 for label in labels]
    correct = decisions == np.repeat(truth, sizes)
    confusion: Dict[str, Dict[str, int]] = {}
    per_class: Dict[str, float] = {}
    start = 0
    for label, size in zip(labels, sizes):
        counts = np.bincount(decisions[start : start + size], minlength=len(classes))
        confusion[label] = dict(zip(classes, counts.tolist()))
        per_class[label] = int(np.count_nonzero(correct[start : start + size])) / size
        start += size
    trials = int(correct.size)
    # count / trials is exactly the mean of the 0/1 flags.
    rate = int(np.count_nonzero(correct)) / trials if trials else float("nan")
    return DetectionResult(
        feature_name=feature.name,
        sample_size=sample_size,
        detection_rate=rate,
        per_class_rates=per_class,
        confusion=confusion,
        trials=trials,
        correct_flags=correct.tolist(),
    )


def evaluate_attack(
    training_intervals: Mapping[str, np.ndarray],
    test_intervals: Mapping[str, np.ndarray],
    feature: FeatureStatistic,
    sample_size: int,
    priors: Optional[Mapping[str, float]] = None,
    max_samples_per_class: Optional[int] = None,
) -> DetectionResult:
    """Convenience wrapper: train on one set of captures, evaluate on another."""
    classifier = train_classifier(
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


def detection_rates(
    training_intervals: Mapping[str, np.ndarray],
    test_intervals: Mapping[str, np.ndarray],
    features: Mapping[str, FeatureStatistic],
    sample_sizes: Sequence[int],
    max_samples_per_class: Optional[int] = None,
    kde_bandwidth: Union[str, float] = "silverman",
) -> Dict[Tuple[str, int], float]:
    """The detection rate of every (feature, sample size) attack on one pair of captures.

    Each rate is, bit for bit, that of one ``KDEBayesClassifier(bandwidth)``
    per pair (:func:`evaluate_attack` for ``"silverman"``); a number
    multiplies the Silverman bandwidth of each pair's pooled training
    features.  After extraction in (feature, sample size, label) order,
    classifiers with equal class and test sizes share one bandwidth and one
    :func:`kde_log_densities` call (one per class if class sizes differ).
    The first failing pair raises its error, as a per-pair loop would.
    """
    pairs: List[Tuple[str, int]] = []
    classes: List[List[np.ndarray]] = []
    tests: List[List[np.ndarray]] = []
    failure: Optional[AnalysisError] = None
    test_labels = sorted(str(label) for label in test_intervals)
    try:
        for name, feature in features.items():
            for n in sample_sizes:
                trained = training_features(training_intervals, feature, n, max_samples_per_class)
                labels, rows, log_priors = training_rows(trained)
                tests.append([
                    extract_feature_samples(test_intervals[t], feature, n, max_samples_per_class)
                    for t in test_labels
                ])
                classes.append(rows)
                pairs.append((name, n))
    except AnalysisError as exc:
        # An earlier pair may still fail first, when its values are decided.
        failure = exc
    if not pairs:
        if failure is not None:
            raise failure
        return {}
    multiplier = None if isinstance(kde_bandwidth, str) else float(kde_bandwidth)
    if multiplier is not None and not multiplier > 0.0:
        raise AnalysisError("bandwidth must be positive")
    groups: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], List[int]] = {}
    for k, (rows, values) in enumerate(zip(classes, tests)):
        key = (tuple(row.size for row in rows), tuple(v.size for v in values))
        groups.setdefault(key, []).append(k)
    counts = [sum(v.size for v in values) for values in tests]
    points = np.empty((len(pairs), max(counts)))
    truth = np.full(points.shape, -1)
    scores = np.empty((len(pairs), len(labels), points.shape[1]))
    index = [labels.index(label) if label in labels else -1 for label in test_labels]
    for (sizes, test_sizes), ks in groups.items():
        count = sum(test_sizes)
        points[ks, :count] = np.concatenate([v for k in ks for v in tests[k]]).reshape(len(ks), -1)
        # Padding repeats a real value: it decides nothing new and is never counted.
        points[ks, count:] = points[ks, count - 1 : count]
        truth[ks, :count] = np.repeat(index, test_sizes)
        if multiplier is not None:
            pooled_h = multiplier * silverman_bandwidths([np.concatenate(classes[k]) for k in ks])
        # All classes in one block when their sizes are equal, else one block each.
        cs = [slice(None)] if len(set(sizes)) == 1 else [slice(c, c + 1) for c in range(len(sizes))]
        for c in cs:
            block = np.array([classes[k][c] for k in ks])
            if multiplier is None:
                h = rule_bandwidths(block.reshape(-1, block.shape[2]), kde_bandwidth)
            else:
                h = np.repeat(pooled_h, block.shape[1])
            scores[ks, c] = kde_log_densities(block, h.reshape(block.shape[:2]), points[ks])
    scores += log_priors[:, None]
    correct = bayes_decisions(scores, points) == truth
    if failure is not None:
        raise failure
    return {pair: np.count_nonzero(hit) / count for pair, hit, count in zip(pairs, correct, counts)}


__all__ = [
    "slice_into_samples",
    "extract_feature_samples",
    "training_features",
    "train_classifier",
    "DetectionResult",
    "empirical_detection_rate",
    "evaluate_attack",
    "detection_rates",
]
