"""Closed-form detection-rate estimates (Theorems 1-3 of the paper).

All three formulas take the variance ratio ``r`` (equation (16)) and, where
relevant, the sample size ``n``, and return an estimate of the detection rate
— the probability that the Bayes-optimal adversary identifies the payload
rate correctly.  Detection rates are bounded below by 0.5 (random guessing
between two equally likely rates) and above by 1.

Transcription note (also recorded in DESIGN.md and EXPERIMENTS.md): the
supplied text of equation (18) is garbled by OCR and does not satisfy the
properties the paper itself states for it (value 0.5 at ``r = 1``).  Theorem 1
is therefore implemented as ``1 - 1/(sqrt(r) + 1/sqrt(r))``, which has every
stated property — it equals 0.5 at ``r = 1``, increases with ``r``, is
independent of ``n`` — and tracks the exact Bayes rate for two equal-mean
normals (available in :mod:`repro.core.exact`) to within a few percentage
points over the relevant range of ``r``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.core.variance_ratio import check_ratio
from repro.exceptions import AnalysisError

#: Detection-rate floor for two equiprobable payload rates: random guessing.
DETECTION_FLOOR = 0.5

#: Treat ratios within this distance of 1 as exactly 1 (the constants in
#: Theorems 2 and 3 diverge as r -> 1, so the detection rate is the floor).
_RATIO_EPSILON = 1e-12


def _check_sample_size(n: float) -> float:
    n = float(n)
    if not n >= 2:
        raise AnalysisError(f"sample size must be >= 2, got {n!r}")
    return n


def detection_rate_mean(r: float) -> float:
    """Theorem 1: detection rate when the adversary uses the sample mean.

    Independent of the sample size: because both conditional distributions of
    the sample mean share the same mean ``tau`` and their variances shrink at
    the same ``1/n`` rate, collecting more packets does not help the
    adversary.  Equals the 0.5 floor at ``r = 1`` and grows slowly with ``r``.
    """
    r = check_ratio(r)
    sqrt_r = math.sqrt(r)
    return 1.0 - 1.0 / (sqrt_r + 1.0 / sqrt_r)


def variance_constant(r: float) -> float:
    """``C_Y`` of Theorem 2 (equation (21)).

    Diverges as ``r -> 1`` (no information: infinite samples needed).
    """
    r = check_ratio(r)
    if r - 1.0 < _RATIO_EPSILON:
        return math.inf
    log_r = math.log(r)
    lower_gap = 1.0 - log_r / (r - 1.0)          # distance of the threshold from sigma_l^2 side
    upper_gap = r * log_r / (r - 1.0) - 1.0      # distance from the sigma_h^2 side
    return 1.0 / (2.0 * lower_gap**2) + 1.0 / (2.0 * upper_gap**2)


def detection_rate_variance(r: float, sample_size: float) -> float:
    """Theorem 2: detection rate when the adversary uses the sample variance.

    ``v_Y ~= max(1 - C_Y / (n - 1), 0.5)`` — increases with both the sample
    size and the variance ratio, reaching 100 % in the limit of an infinitely
    long observation at a fixed payload rate.
    """
    n = _check_sample_size(sample_size)
    constant = variance_constant(r)
    if math.isinf(constant):
        return DETECTION_FLOOR
    return max(1.0 - constant / (n - 1.0), DETECTION_FLOOR)


def entropy_constant(r: float) -> float:
    """``C_H`` of Theorem 3 (equation (23))."""
    r = check_ratio(r)
    if r - 1.0 < _RATIO_EPSILON:
        return math.inf
    log_r = math.log(r)
    first = math.log(r * log_r / (r - 1.0))
    second = math.log((r - 1.0) / log_r)
    return 1.0 / (2.0 * first**2) + 1.0 / (2.0 * second**2)


def detection_rate_entropy(r: float, sample_size: float) -> float:
    """Theorem 3: detection rate when the adversary uses the sample entropy.

    ``v_H ~= max(1 - C_H / n, 0.5)``.
    """
    n = _check_sample_size(sample_size)
    constant = entropy_constant(r)
    if math.isinf(constant):
        return DETECTION_FLOOR
    return max(1.0 - constant / n, DETECTION_FLOOR)


def detection_rate(feature: str, r: float, sample_size: float = 2) -> float:
    """Dispatch helper: detection rate of the named feature statistic."""
    key = feature.strip().lower()
    if key == "mean":
        return detection_rate_mean(r)
    if key == "variance":
        return detection_rate_variance(r, sample_size)
    if key == "entropy":
        return detection_rate_entropy(r, sample_size)
    raise AnalysisError(f"no closed-form detection rate for feature {feature!r}")


def detection_rate_table(
    axis: Mapping[Any, Tuple[float, float]], features: Sequence[str]
) -> Dict[str, Dict[Any, float]]:
    """:func:`detection_rate` per feature along one axis of an experiment.

    ``axis`` maps each axis value (a utilization, an hour, a sample size,
    ...) to its ``(r, sample size)``.  A feature the theorems do not cover
    (the extension features ``mad`` and ``iqr``) reads NaN.
    """
    return {
        feature: {
            value: (
                detection_rate(feature, r, n)
                if feature in ("mean", "variance", "entropy")
                else math.nan
            )
            for value, (r, n) in axis.items()
        }
        for feature in features
    }


__all__ = [
    "DETECTION_FLOOR",
    "detection_rate_mean",
    "variance_constant",
    "detection_rate_variance",
    "entropy_constant",
    "detection_rate_entropy",
    "detection_rate",
    "detection_rate_table",
]
