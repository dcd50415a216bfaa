"""The traffic-analysis adversary.

Implements the attack of Section 3.3 of the paper.  The adversary taps the
unprotected network between the two gateways, collects samples of the padded
stream's packet inter-arrival times (PIATs), summarises each sample with a
feature statistic (sample mean, sample variance or sample entropy), and uses
Bayes decision rules — trained off-line on labelled samples with Gaussian
kernel density estimates — to decide which payload rate is currently being
sent.

* :mod:`repro.adversary.features` — the feature statistics.
* :mod:`repro.adversary.bayes` — KDE-based Bayes classifier (off-line
  training + run-time classification).
* :mod:`repro.adversary.detection` — the full attack pipeline and empirical
  detection-rate measurement.
* :mod:`repro.adversary.multiclass` — confusion matrices and the extension to
  more than two payload rates discussed in Section 6.

:mod:`repro.adversary.tap` — passive capture of packet timings at any
observation point — is part of the event-engine reference
(:func:`repro.experiments.base.simulate_gateway_capture_events`) and is not
re-exported here.
"""

from repro.adversary.bayes import KDEBayesClassifier
from repro.adversary.detection import (
    DetectionResult,
    empirical_detection_rate,
    evaluate_attack,
    extract_feature_samples,
    slice_into_samples,
    train_classifier,
)
from repro.adversary.features import (
    EntropyFeature,
    FeatureStatistic,
    InterquartileRangeFeature,
    MeanFeature,
    MedianAbsoluteDeviationFeature,
    VarianceFeature,
    default_features,
    get_feature,
)
from repro.adversary.multiclass import (
    confusion_matrix,
    evaluate_multiclass_attack,
    per_class_detection_rates,
)

__all__ = [
    "FeatureStatistic",
    "MeanFeature",
    "VarianceFeature",
    "EntropyFeature",
    "MedianAbsoluteDeviationFeature",
    "InterquartileRangeFeature",
    "default_features",
    "get_feature",
    "KDEBayesClassifier",
    "DetectionResult",
    "slice_into_samples",
    "extract_feature_samples",
    "train_classifier",
    "empirical_detection_rate",
    "evaluate_attack",
    "confusion_matrix",
    "per_class_detection_rates",
    "evaluate_multiclass_attack",
]
