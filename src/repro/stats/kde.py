"""Gaussian kernel density estimation.

The paper's adversary does not rely on coarse histograms to model the
probability density function of a feature statistic during off-line training;
it uses the Gaussian kernel estimator of Silverman [17].  This module provides
a small, dependency-light implementation (scipy's ``gaussian_kde`` exists, but
implementing it directly keeps bandwidth selection explicit and lets the
classifier evaluate log-densities stably even far in the tails).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import AnalysisError

#: Most kernel evaluations held in memory at once by :meth:`GaussianKDE.logpdf`.
_BLOCK_KERNELS = 1 << 18


def silverman_bandwidth(sample: np.ndarray) -> float:
    """Silverman's rule-of-thumb bandwidth.

    ``h = 0.9 * min(std, IQR / 1.34) * n^(-1/5)``, robust to mild bimodality
    and heavy tails.  Returns a tiny positive bandwidth when the sample is
    degenerate (all values equal) so the KDE stays well defined.
    """
    array = np.asarray(sample, dtype=float)
    if array.size < 2:
        raise AnalysisError("bandwidth selection needs at least 2 observations")
    std = float(np.std(array, ddof=1))
    q75, q25 = np.percentile(array, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread_candidates = [value for value in (std, iqr / 1.34) if value > 0.0]
    if not spread_candidates:
        scale = max(abs(float(np.mean(array))), 1.0)
        return 1e-12 * scale
    spread = min(spread_candidates)
    return 0.9 * spread * array.size ** (-0.2)


def scott_bandwidth(sample: np.ndarray) -> float:
    """Scott's rule bandwidth: ``h = 1.06 * std * n^(-1/5)``."""
    array = np.asarray(sample, dtype=float)
    if array.size < 2:
        raise AnalysisError("bandwidth selection needs at least 2 observations")
    std = float(np.std(array, ddof=1))
    if std == 0.0:
        scale = max(abs(float(np.mean(array))), 1.0)
        return 1e-12 * scale
    return 1.06 * std * array.size ** (-0.2)


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
        if isinstance(bandwidth, str):
            rule = bandwidth.strip().lower()
            if rule == "silverman":
                self.bandwidth = silverman_bandwidth(array)
            elif rule == "scott":
                self.bandwidth = scott_bandwidth(array)
            else:
                raise AnalysisError(f"unknown bandwidth rule {bandwidth!r}")
        else:
            self.bandwidth = float(bandwidth)
            if self.bandwidth <= 0.0:
                raise AnalysisError("bandwidth must be positive")

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
        points = np.atleast_1d(np.asarray(x, dtype=float))
        log_density = np.empty(points.shape)
        # Row blocks bound the (points, sample) kernel matrix; each point's
        # value does not depend on the block it lands in.
        block = max(1, _BLOCK_KERNELS // self.sample.size)
        for start in range(0, points.size, block):
            z = (points[start : start + block, None] - self.sample[None, :]) / self.bandwidth
            log_kernels = -0.5 * z**2 - 0.5 * np.log(2.0 * np.pi) - np.log(self.bandwidth)
            # log mean exp over the kernel axis
            max_log = np.max(log_kernels, axis=1, keepdims=True)
            log_density[start : start + block] = (
                max_log[:, 0]
                + np.log(np.mean(np.exp(log_kernels - max_log), axis=1))
            )
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


__all__ = ["GaussianKDE", "silverman_bandwidth", "scott_bandwidth"]
