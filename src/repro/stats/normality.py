"""Normality diagnostics.

Section 4 of the paper *assumes* that the padded traffic's PIAT is normally
distributed and validates the assumption by looking at the empirical PDFs
("the two distributions are almost bell-shaped", Figure 4(a)).  These helpers
give the same sanity check a quantitative form for the simulated traces used
in this reproduction: a Jarque–Bera style moment test and a simple
quantile–quantile deviation measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from repro.exceptions import AnalysisError


def _validate(sample: np.ndarray, minimum: int) -> np.ndarray:
    array = np.asarray(sample, dtype=float)
    if array.ndim != 1 or array.size < minimum:
        raise AnalysisError(f"need a 1-D sample with at least {minimum} observations")
    if not np.all(np.isfinite(array)):
        raise AnalysisError("sample contains non-finite values")
    return array


def _shape_moments(array: np.ndarray) -> tuple[float, float, float, float]:
    """Biased skewness ``m3/m2^1.5``, excess kurtosis ``m4/m2^2 - 3`` and
    ``JB = n/6 (S^2 + K^2/4)`` with its chi-square(2) p-value ``exp(-JB/2)``."""
    mean = float(np.mean(array))
    deviations = array - mean
    squared = deviations**2
    m2 = float(np.mean(squared))
    # Zero up to the rounding of the mean: the moments are undefined.
    if m2 <= (np.finfo(float).resolution * mean) ** 2:
        raise AnalysisError("moment statistics are undefined for a constant sample")
    skewness = float(np.mean(squared * deviations)) / m2**1.5
    excess_kurtosis = float(np.mean(squared**2)) / m2**2 - 3.0
    statistic = array.size / 6.0 * (skewness**2 + excess_kurtosis**2 / 4.0)
    return skewness, excess_kurtosis, statistic, math.exp(-statistic / 2.0)


def jarque_bera_normality(sample: np.ndarray) -> tuple[float, float]:
    """Jarque–Bera statistic and p-value for the null of normality."""
    _, _, statistic, pvalue = _shape_moments(_validate(sample, 8))
    return statistic, pvalue


@lru_cache(maxsize=8)
def _standard_normal_quantiles(size: int) -> np.ndarray:
    """Standard normal quantiles at the Q–Q plotting positions ``(i - 0.5)/n``."""
    inv_cdf = NormalDist().inv_cdf
    quantiles = np.fromiter(
        (inv_cdf((i - 0.5) / size) for i in range(1, size + 1)), dtype=float, count=size
    )
    quantiles.flags.writeable = False
    return quantiles


def _normal_quantiles(size: int, mean: float, std: float) -> np.ndarray:
    """Quantiles of ``N(mean, std^2)`` at the Q–Q plotting positions ``(i - 0.5)/n``.

    ``NormalDist(mean, std).inv_cdf(p)`` is ``mean + x * std`` for the
    standard quantile ``x``, so scaling the cached standard quantiles gives
    the same bits.
    """
    return mean + _standard_normal_quantiles(size) * std


def qq_deviation(sample: np.ndarray) -> float:
    """Root-mean-square deviation of the sample's normal Q–Q plot from its fit line.

    The deviation is normalised by the sample standard deviation, so values
    around or below ~0.1 indicate a distribution that is visually
    indistinguishable from a normal ("almost bell-shaped" in the paper's
    words) while values well above ~0.3 indicate clear departure.
    """
    array = _validate(sample, 8)
    std = float(np.std(array, ddof=1))
    if std == 0.0:
        raise AnalysisError("Q-Q deviation is undefined for a constant sample")
    residuals = np.sort(array) - _normal_quantiles(array.size, float(np.mean(array)), std)
    return float(np.sqrt(np.mean(residuals**2)) / std)


@dataclass(frozen=True)
class NormalityReport:
    """Summary of how well a sample matches a normal distribution."""

    size: int
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    jarque_bera_statistic: float
    jarque_bera_pvalue: float
    qq_rms_deviation: float

    @property
    def looks_normal(self) -> bool:
        """A pragmatic verdict mirroring the paper's visual check.

        A strict hypothesis test rejects normality for almost any large
        real-world sample; what matters for the Gaussian PIAT model is that
        the shape is close.  We call a sample "normal enough" when the Q–Q
        deviation is small and the third/fourth moments are mild.
        """
        return (
            self.qq_rms_deviation < 0.25
            and abs(self.skewness) < 1.0
            and abs(self.excess_kurtosis) < 3.0
        )


def normality_report(sample: np.ndarray) -> NormalityReport:
    """Build a :class:`NormalityReport` for a sample."""
    array = _validate(sample, 8)
    skewness, excess_kurtosis, statistic, pvalue = _shape_moments(array)
    return NormalityReport(
        size=int(array.size),
        mean=float(np.mean(array)),
        std=float(np.std(array, ddof=1)),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        jarque_bera_statistic=statistic,
        jarque_bera_pvalue=pvalue,
        qq_rms_deviation=qq_deviation(array),
    )


__all__ = ["jarque_bera_normality", "qq_deviation", "NormalityReport", "normality_report"]
