"""Gaussian kernel density estimation.

The paper's adversary does not rely on coarse histograms to model the
probability density function of a feature statistic during off-line training;
it uses the Gaussian kernel estimator of Silverman [17].  This module provides
a small, dependency-light implementation (scipy's ``gaussian_kde`` exists, but
implementing it directly keeps bandwidth selection explicit and lets the
classifier evaluate log-densities stably even far in the tails).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.exceptions import AnalysisError
from repro.stats.descriptive import linear_quantile

#: Most kernel evaluations held in memory at once by :func:`kde_log_densities`.
_BLOCK_KERNELS = 1 << 18


def _bandwidth_rows(samples: np.ndarray) -> np.ndarray:
    """``samples`` as a float ``(rows, n)`` matrix with ``n >= 2``."""
    matrix = np.ascontiguousarray(samples, dtype=float)
    if matrix.ndim != 2:
        raise AnalysisError("row-wise bandwidths expect a (rows, n) matrix")
    if matrix.shape[1] < 2:
        raise AnalysisError("bandwidth selection needs at least 2 observations")
    return matrix


def _scaled_or_degenerate(matrix: np.ndarray, spread: np.ndarray, factor: float) -> np.ndarray:
    """``factor * spread * n^(-1/5)`` per row; a row whose spread is not
    positive gets a tiny positive bandwidth so the KDE stays well defined."""
    bandwidths = factor * spread * matrix.shape[1] ** (-0.2)
    positive = spread > 0.0
    if positive.all():
        return bandwidths
    degenerate = 1e-12 * np.maximum(np.abs(np.mean(matrix, axis=1)), 1.0)
    return np.where(positive, bandwidths, degenerate)


def silverman_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Silverman's rule-of-thumb bandwidth of every row of ``samples``.

    ``h = 0.9 * min(std, IQR / 1.34) * n^(-1/5)``, robust to mild bimodality
    and heavy tails; a spread that is zero drops out of the minimum, and a
    row with neither gets a tiny positive bandwidth so the KDE stays well
    defined.  The quartiles are numpy's default (linear) percentiles, written
    out over one row-wise sort, so every row equals the 1-D rule bit for bit.
    """
    matrix = _bandwidth_rows(samples)
    std = np.std(matrix, axis=1, ddof=1)
    ordered = np.sort(matrix, axis=1)
    q75, q25 = (linear_quantile(ordered, q) for q in (0.75, 0.25))
    iqr = (q75 - q25) / 1.34
    # A zero spread drops out of the minimum (NaN, which fmin skips).
    spread = np.fmin(np.where(std > 0.0, std, np.nan), np.where(iqr > 0.0, iqr, np.nan))
    return _scaled_or_degenerate(matrix, spread, 0.9)


def scott_bandwidths(samples: np.ndarray) -> np.ndarray:
    """Scott's rule bandwidth of every row: ``h = 1.06 * std * n^(-1/5)``."""
    matrix = _bandwidth_rows(samples)
    return _scaled_or_degenerate(matrix, np.std(matrix, axis=1, ddof=1), 1.06)


def silverman_bandwidth(sample: np.ndarray) -> float:
    """Silverman's rule for one sample (the one-row :func:`silverman_bandwidths`)."""
    return float(silverman_bandwidths(np.reshape(sample, (1, -1)))[0])


def scott_bandwidth(sample: np.ndarray) -> float:
    """Scott's rule for one sample (the one-row :func:`scott_bandwidths`)."""
    return float(scott_bandwidths(np.reshape(sample, (1, -1)))[0])


#: Bandwidth rule name -> its row-wise form.
_BANDWIDTH_RULES = {"silverman": silverman_bandwidths, "scott": scott_bandwidths}


def rule_bandwidths(samples: np.ndarray, bandwidth: Union[str, float]) -> np.ndarray:
    """One bandwidth per row of ``samples``: a rule name or one positive value."""
    if isinstance(bandwidth, str):
        rule = _BANDWIDTH_RULES.get(bandwidth.strip().lower())
        if rule is None:
            raise AnalysisError(f"unknown bandwidth rule {bandwidth!r}")
        return rule(samples)
    value = float(bandwidth)
    if not value > 0.0:
        raise AnalysisError("bandwidth must be positive")
    return np.full(np.shape(samples)[0], value)


def kde_log_densities(
    samples: np.ndarray,
    bandwidths: Union[Sequence[float], np.ndarray],
    points: Union[float, Sequence[float], np.ndarray],
) -> np.ndarray:
    """Gaussian-KDE log-densities of every row of ``samples`` at every point.

    ``samples`` is a ``(rows, n)`` matrix of training observations and
    ``bandwidths`` holds one bandwidth per row; the result is ``(rows,
    points)``.  Each value is a stable log-sum-exp over its row's kernels,
    so Bayes comparisons stay meaningful even when a point lies many
    bandwidths away from every observation.  Point blocks bound the
    ``(rows, points, n)`` kernel tensor; a value does not depend on the
    block it lands in.
    """
    points = np.asarray(points, dtype=float).reshape(-1)
    scale = np.asarray(bandwidths, dtype=float)[:, None, None]
    log_scale = np.log(scale)
    log_density = np.empty((samples.shape[0], points.size))
    block = max(1, _BLOCK_KERNELS // samples.size)
    for start in range(0, points.size, block):
        z = (points[None, start : start + block, None] - samples[:, None, :]) / scale
        log_kernels = -0.5 * z**2 - 0.5 * np.log(2.0 * np.pi) - log_scale
        # log mean exp over the kernel axis
        max_log = np.max(log_kernels, axis=2, keepdims=True)
        log_density[:, start : start + block] = (
            max_log[..., 0] + np.log(np.mean(np.exp(log_kernels - max_log), axis=2))
        )
    return log_density


class GaussianKDE:
    """One-dimensional Gaussian kernel density estimator.

    Parameters
    ----------
    sample:
        Training observations.
    bandwidth:
        Either a positive float, or one of the strings ``"silverman"``
        (default, the paper's choice) / ``"scott"``.
    """

    def __init__(
        self, sample: np.ndarray, bandwidth: Union[str, float] = "silverman"
    ) -> None:
        array = np.asarray(sample, dtype=float)
        if array.ndim != 1:
            raise AnalysisError("GaussianKDE expects a one-dimensional sample")
        if array.size < 2:
            raise AnalysisError("GaussianKDE needs at least 2 observations")
        if not np.all(np.isfinite(array)):
            raise AnalysisError("GaussianKDE received non-finite values")
        self.sample = array
        self.bandwidth = float(rule_bandwidths(array[None, :], bandwidth)[0])

    @property
    def n(self) -> int:
        """Number of training observations."""
        return int(self.sample.size)

    def pdf(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Estimated density at ``x`` (scalar or array)."""
        return np.exp(self.logpdf(x))

    def logpdf(self, x: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Log-density at ``x``, computed with a stable log-sum-exp.

        Evaluating the log-density directly (instead of ``log(pdf)``) keeps
        Bayes comparisons meaningful even when a test feature lies many
        bandwidths away from every training point.
        """
        log_density = kde_log_densities(self.sample[None, :], [self.bandwidth], x)[0]
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(log_density[0])
        return log_density

    def grid(self, n_points: int = 512, padding: float = 3.0) -> np.ndarray:
        """An evaluation grid spanning the sample plus ``padding`` bandwidths."""
        if n_points < 2:
            raise AnalysisError("grid needs at least 2 points")
        low = float(np.min(self.sample)) - padding * self.bandwidth
        high = float(np.max(self.sample)) + padding * self.bandwidth
        return np.linspace(low, high, n_points)


__all__ = [
    "GaussianKDE",
    "kde_log_densities",
    "rule_bandwidths",
    "scott_bandwidth",
    "scott_bandwidths",
    "silverman_bandwidth",
    "silverman_bandwidths",
]
