"""Feature statistics computed over a PIAT sample.

Section 3.3 step (1): the adversary selects a statistical feature of the
packet inter-arrival time to use for classification.  The paper studies three
— sample mean, sample variance and sample entropy — and this module adds two
robust dispersion statistics (median absolute deviation and interquartile
range), which an experiment's ``features`` can name to ask whether an
adversary could do better than the paper's feature set under heavy cross
traffic.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import AnalysisError
from repro.stats.entropy import moddemeijer_entropy_rows
from repro.units import PAPER_TIMER_INTERVAL_S


class FeatureStatistic:
    """Interface: map a PIAT sample (1-D array of seconds) to one number.

    Subclasses implement :meth:`compute_rows`, which summarises every row of a
    ``(n_samples, sample_size)`` matrix at once; :meth:`compute` is the same
    computation on a one-row matrix.  Each row's value is bit-identical to the
    1-D reference statistic (``sample_mean``, ``sample_variance``,
    ``moddemeijer_entropy``, ...) evaluated on that row alone.
    """

    #: Short identifier used in result tables ("mean", "variance", ...).
    name: str = "abstract"
    #: Smallest sample size for which the statistic is defined.
    min_sample_size: int = 1

    def compute_rows(self, samples: np.ndarray) -> np.ndarray:
        """Value of the statistic on each row of a ``(n_samples, sample_size)`` matrix."""
        raise NotImplementedError

    def compute(self, intervals: np.ndarray) -> float:
        """Value of the statistic on the given sample."""
        array = np.asarray(intervals, dtype=float)
        if array.ndim != 1:
            raise AnalysisError(f"feature {self.name!r} expects a 1-D sample")
        return float(self.compute_rows(array[None, :])[0])

    def _validate_rows(self, samples: np.ndarray) -> np.ndarray:
        rows = np.asarray(samples, dtype=float)
        if rows.ndim != 2:
            raise AnalysisError(f"feature {self.name!r} expects a 2-D matrix of samples")
        if rows.shape[1] < self.min_sample_size:
            raise AnalysisError(
                f"feature {self.name!r} needs at least {self.min_sample_size} intervals, "
                f"got {rows.shape[1]}"
            )
        return rows

    def __call__(self, intervals: np.ndarray) -> float:
        return self.compute(intervals)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


def _require_finite(rows: np.ndarray, statistic: str) -> None:
    # The message names the 1-D reference statistic, which raises the same error.
    if not np.isfinite(rows).all():
        raise AnalysisError(f"{statistic} received non-finite values")


class MeanFeature(FeatureStatistic):
    """Sample mean of the PIAT sample (equation (17))."""

    name = "mean"
    min_sample_size = 1

    def compute_rows(self, samples: np.ndarray) -> np.ndarray:
        rows = self._validate_rows(samples)
        _require_finite(rows, "sample_mean")
        return rows.mean(axis=1)


class VarianceFeature(FeatureStatistic):
    """Unbiased sample variance of the PIAT sample (equation (19))."""

    name = "variance"
    min_sample_size = 2

    def compute_rows(self, samples: np.ndarray) -> np.ndarray:
        rows = self._validate_rows(samples)
        _require_finite(rows, "sample_variance")
        return rows.var(axis=1, ddof=1)


class EntropyFeature(FeatureStatistic):
    """Histogram (Moddemeijer) sample entropy of the PIAT sample (equation (25)).

    Parameters
    ----------
    bin_width:
        Histogram bin width ``delta_h`` in seconds, held constant across an
        experiment.  The default — 1/200 of the paper's 10 ms timer interval,
        i.e. 50 microseconds — resolves the gateway-jitter scale differences
        between the low- and high-rate classes without producing an
        essentially empty histogram at practical sample sizes.
    """

    name = "entropy"
    min_sample_size = 2

    def __init__(self, bin_width: Optional[float] = None) -> None:
        if bin_width is None:
            bin_width = PAPER_TIMER_INTERVAL_S / 200.0
        if bin_width <= 0.0:
            raise AnalysisError("entropy bin_width must be positive")
        self.bin_width = float(bin_width)

    def compute_rows(self, samples: np.ndarray) -> np.ndarray:
        return moddemeijer_entropy_rows(self._validate_rows(samples), self.bin_width)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"EntropyFeature(bin_width={self.bin_width!r})"


class MedianAbsoluteDeviationFeature(FeatureStatistic):
    """Median absolute deviation: a highly outlier-resistant dispersion measure."""

    name = "mad"
    min_sample_size = 2

    def compute_rows(self, samples: np.ndarray) -> np.ndarray:
        rows = self._validate_rows(samples)
        return np.median(np.abs(rows - np.median(rows, axis=1, keepdims=True)), axis=1)


class InterquartileRangeFeature(FeatureStatistic):
    """Interquartile range of the PIAT sample."""

    name = "iqr"
    min_sample_size = 4

    def compute_rows(self, samples: np.ndarray) -> np.ndarray:
        rows = self._validate_rows(samples)
        q75, q25 = np.percentile(rows, [75.0, 25.0], axis=1)
        return q75 - q25


def default_features(entropy_bin_width: Optional[float] = None) -> Dict[str, FeatureStatistic]:
    """The paper's three feature statistics, keyed by name."""
    return {
        "mean": MeanFeature(),
        "variance": VarianceFeature(),
        "entropy": EntropyFeature(bin_width=entropy_bin_width),
    }


_EXTRA_FEATURES = {
    "mad": MedianAbsoluteDeviationFeature,
    "iqr": InterquartileRangeFeature,
}


def get_feature(name: str, entropy_bin_width: Optional[float] = None) -> FeatureStatistic:
    """Look up a feature statistic by name (paper features plus extensions)."""
    key = name.strip().lower()
    base = default_features(entropy_bin_width)
    if key in base:
        return base[key]
    if key in _EXTRA_FEATURES:
        return _EXTRA_FEATURES[key]()
    raise AnalysisError(
        f"unknown feature {name!r}; known features: "
        f"{sorted(list(base) + list(_EXTRA_FEATURES))}"
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
]
