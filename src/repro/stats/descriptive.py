"""Descriptive statistics with the paper's conventions.

The adversary's feature statistics are defined in Section 4 of the paper:
the sample mean (equation (17)) and the *unbiased* sample variance with the
``n - 1`` denominator (equation (19)).  Keeping these tiny wrappers in one
place guarantees that the classifier, the theorems and the tests all use the
same definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.exceptions import AnalysisError


def _validate_sample(sample: np.ndarray, minimum_size: int, name: str) -> np.ndarray:
    array = np.asarray(sample, dtype=float)
    if array.ndim != 1:
        raise AnalysisError(f"{name} expects a one-dimensional sample, got shape {array.shape}")
    if array.size < minimum_size:
        raise AnalysisError(
            f"{name} needs at least {minimum_size} observations, got {array.size}"
        )
    if not np.all(np.isfinite(array)):
        raise AnalysisError(f"{name} received non-finite values")
    return array


def sample_mean(sample: np.ndarray) -> float:
    """The sample mean, equation (17) of the paper."""
    array = _validate_sample(sample, 1, "sample_mean")
    return float(np.mean(array))


def sample_variance(sample: np.ndarray) -> float:
    """The unbiased sample variance (``n - 1`` denominator), equation (19)."""
    array = _validate_sample(sample, 2, "sample_variance")
    return float(np.var(array, ddof=1))


def sample_moments(sample: np.ndarray) -> Tuple[float, float]:
    """Convenience: ``(sample mean, unbiased sample variance)`` in one pass."""
    array = _validate_sample(sample, 2, "sample_moments")
    return float(np.mean(array)), float(np.var(array, ddof=1))


def standard_error_of_mean(sample: np.ndarray) -> float:
    """Standard error of the sample mean, ``s / sqrt(n)``."""
    array = _validate_sample(sample, 2, "standard_error_of_mean")
    return float(np.std(array, ddof=1) / np.sqrt(array.size))


def coefficient_of_variation(sample: np.ndarray) -> float:
    """Ratio of sample standard deviation to sample mean.

    Raises
    ------
    AnalysisError
        If the sample mean is zero (the ratio is undefined).
    """
    array = _validate_sample(sample, 2, "coefficient_of_variation")
    mean = float(np.mean(array))
    if mean == 0.0:
        raise AnalysisError("coefficient of variation is undefined for zero-mean samples")
    return float(np.std(array, ddof=1) / mean)


def linear_quantile(ordered: np.ndarray, q: float) -> Union[np.ndarray, np.floating]:
    """``np.quantile(x, q)`` along the last axis, given ``ordered = np.sort(x)``.

    numpy's default (linear) method written out over a sort the caller
    already holds, so it equals numpy bit for bit: the virtual index
    ``(n - 1) * q`` splits into a floor and a fraction ``t``, and the lerp
    runs from the nearer end.  An index at or past the last element takes
    the last element, with ``t`` measured from index -1 as numpy does, and a
    slice whose last element is NaN (a sort puts NaNs last) is NaN.  For
    ``np.percentile(x, p)`` pass ``q = p / 100``, the quantile numpy derives:
    ``100 * q / 100`` is not always ``q``.
    """
    n = ordered.shape[-1]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below = above = n - 1
        t = virtual + 1.0
    else:
        below = math.floor(virtual)
        above = below + 1
        t = virtual - below
    a, b = ordered[..., below], ordered[..., above]
    diff = b - a
    result = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
    last = ordered[..., -1]
    has_nan = np.isnan(last)
    if has_nan.any():
        return np.where(has_nan, last, result)
    return result


@dataclass(frozen=True)
class SampleSummary:
    """A compact numeric summary of one observed sample."""

    size: int
    mean: float
    variance: float
    std: float
    minimum: float
    maximum: float
    median: float
    q25: float
    q75: float

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.q75 - self.q25


def summarize(sample: np.ndarray) -> SampleSummary:
    """Compute a :class:`SampleSummary` for a one-dimensional sample."""
    array = _validate_sample(sample, 2, "summarize")
    q25, median, q75 = np.percentile(array, [25.0, 50.0, 75.0])
    return SampleSummary(
        size=int(array.size),
        mean=float(np.mean(array)),
        variance=float(np.var(array, ddof=1)),
        std=float(np.std(array, ddof=1)),
        minimum=float(np.min(array)),
        maximum=float(np.max(array)),
        median=float(median),
        q25=float(q25),
        q75=float(q75),
    )


__all__ = [
    "linear_quantile",
    "sample_mean",
    "sample_variance",
    "sample_moments",
    "standard_error_of_mean",
    "coefficient_of_variation",
    "SampleSummary",
    "summarize",
]
