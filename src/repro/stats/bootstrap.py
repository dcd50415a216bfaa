"""Bootstrap confidence intervals for empirical estimates.

The empirical detection rates reported by the experiment harness are averages
over a finite number of classification trials; their sampling error matters
when comparing against the closed-form predictions.  A simple percentile
bootstrap keeps the reporting honest without assuming anything about the
estimator's distribution.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError
from repro.sim.random import derived_rng
from repro.stats.descriptive import linear_quantile

#: Master seed of the fallback resampling stream used when no ``rng`` is
#: passed.  Bootstrap resampling is part of reported confidence intervals, so
#: the fallback must be deterministic: the same sample always yields the same
#: interval, byte for byte, whether or not the caller threads a generator.
DEFAULT_BOOTSTRAP_SEED = 0

#: Most resample indices drawn and gathered in one block.  Resamples are
#: drawn as a ``(rows, n)`` index matrix per block, so peak memory stays at a
#: few 8 MB matrices (indices, gathered values, the reducer's scratch) however
#: large the sample; a sample longer than this still gets one row per block.
#: Block boundaries cannot move a band: the generator emits the same stream
#: whether it is asked for the whole matrix at once or row block by row block.
_BLOCK_INDICES = 1 << 20


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with a percentile-bootstrap confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    resamples: int

    @property
    def width(self) -> float:
        """Width of the confidence interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Callable[..., Any] = np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> BootstrapResult:
    """Percentile bootstrap confidence interval for ``statistic(sample)``.

    Parameters
    ----------
    sample:
        Observed values (at least 2).
    statistic:
        Numpy-style reducer that accepts ``axis=``, like :func:`numpy.mean`
        (the default) or :func:`numpy.median`: ``statistic(values, axis=-1)``
        on a ``(rows, n)`` matrix must return ``rows`` values.
    confidence:
        Two-sided coverage, e.g. 0.95.
    resamples:
        Number of bootstrap resamples (an integer, at least 10).
    rng:
        Random generator.  When omitted, a deterministic generator derived
        from ``seed`` is used, so repeated calls on the same sample return
        the same interval.
    seed:
        Seed of the fallback resampling stream; ignored when ``rng`` is
        given.

    Resamples are drawn and reduced a block of rows at a time.  The result,
    and the state ``rng`` is left in, equal those of drawing one ``n``-index
    resample at a time.
    """
    array = np.asarray(list(sample), dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise AnalysisError("bootstrap needs a 1-D sample with at least 2 observations")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError("confidence must lie in (0, 1)")
    try:
        resamples = operator.index(resamples)
    except TypeError:
        raise AnalysisError(f"resamples must be an integer, got {resamples!r}") from None
    if resamples < 10:
        raise AnalysisError("use at least 10 bootstrap resamples")
    generator = rng if rng is not None else derived_rng("bootstrap", seed)
    n = array.size
    block_rows = max(1, _BLOCK_INDICES // n)
    estimates = np.empty(resamples)
    for start in range(0, resamples, block_rows):
        stop = min(start + block_rows, resamples)
        indices = generator.integers(0, n, size=(stop - start, n))
        estimates[start:stop] = _reduce_rows(statistic, array[indices])
    # np.percentile(estimates, [100 * alpha, 100 * (1 - alpha)]) from one
    # in-place sort; the quantiles are the ones numpy derives from percents.
    estimates.sort()
    alpha = (1.0 - confidence) / 2.0
    lower = linear_quantile(estimates, 100.0 * alpha / 100.0)
    upper = linear_quantile(estimates, 100.0 * (1.0 - alpha) / 100.0)
    return BootstrapResult(
        estimate=float(statistic(array)),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
        resamples=resamples,
    )


def _reduce_rows(statistic: Callable[..., Any], matrix: np.ndarray) -> np.ndarray:
    """``statistic`` of every row of ``matrix``, checked against its contract."""
    contract = "statistic must be a numpy-style reducer accepting axis= (like np.mean)"
    try:
        reduced = statistic(matrix, axis=-1)
    except TypeError as exc:
        raise AnalysisError(f"{contract}: {exc}") from exc
    values = np.asarray(reduced, dtype=float)
    if values.shape != matrix.shape[:1]:
        raise AnalysisError(
            f"{contract}: it returned shape {values.shape} for {matrix.shape[0]} resamples"
        )
    return values


def bootstrap_detection_rate_ci(
    correct_flags: Sequence[bool],
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> BootstrapResult:
    """Confidence interval for a detection rate from per-trial correctness flags.

    ``correct_flags`` holds one boolean per classification trial (``True`` =
    the adversary identified the payload rate correctly); the detection rate
    is their mean.  Like :func:`bootstrap_ci`, the interval is reproducible
    without threading a generator: the fallback stream is derived from
    ``seed``.
    """
    flags = np.asarray(list(correct_flags), dtype=float)
    if flags.size < 2:
        raise AnalysisError("need at least 2 classification trials")
    if np.any((flags != 0.0) & (flags != 1.0)):
        raise AnalysisError("correct_flags must be boolean")
    return bootstrap_ci(
        flags,
        statistic=np.mean,
        confidence=confidence,
        resamples=resamples,
        rng=rng,
        seed=seed,
    )


__all__ = [
    "DEFAULT_BOOTSTRAP_SEED",
    "BootstrapResult",
    "bootstrap_ci",
    "bootstrap_detection_rate_ci",
]
