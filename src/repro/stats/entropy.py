"""Entropy estimators.

The paper's third feature statistic is the *sample entropy* of the padded
traffic's PIAT, estimated with the histogram-based method of Moddemeijer
[11]: build a histogram of the sample with bin width ``delta_h``, then

``H_hat = - sum_i (k_i / n) log(k_i / n) + log(delta_h)``   (equation (24))

When the bin width is held constant across the experiment the additive
``log(delta_h)`` term does not affect classification and the paper drops it
(equation (25)).  Both forms are provided here, plus the closed-form
differential entropy of a normal distribution used by Theorem 3.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import AnalysisError


def normal_differential_entropy(variance: float) -> float:
    """Differential entropy (nats) of ``N(mu, variance)``: ``0.5 log(2 pi e sigma^2)``."""
    if variance <= 0.0:
        raise AnalysisError("variance must be positive for a differential entropy")
    return 0.5 * float(np.log(2.0 * np.pi * np.e * variance))


def histogram_entropy(
    sample: np.ndarray,
    bin_width: Optional[float] = None,
    bins: Optional[Union[int, np.ndarray]] = None,
    include_bin_width_term: bool = True,
) -> float:
    """Histogram estimate of differential entropy (nats).

    Parameters
    ----------
    sample:
        One-dimensional observations.
    bin_width:
        Histogram bin width ``delta_h``.  Exactly one of ``bin_width`` and
        ``bins`` may be given; when neither is given the Freedman–Diaconis
        rule chooses the width.
    bins:
        Explicit number of bins or bin edges (passed to ``numpy.histogram``).
    include_bin_width_term:
        Whether to add ``log(delta_h)`` (equation (24)).  The classifier uses
        ``False`` (equation (25)) since a constant offset cannot change a
        Bayes decision; set ``True`` to estimate the actual differential
        entropy.
    """
    array = np.asarray(sample, dtype=float)
    if array.ndim != 1:
        raise AnalysisError("histogram_entropy expects a one-dimensional sample")
    if array.size < 2:
        raise AnalysisError("histogram_entropy needs at least 2 observations")
    if not np.all(np.isfinite(array)):
        raise AnalysisError("histogram_entropy received non-finite values")
    if bin_width is not None and bins is not None:
        raise AnalysisError("give either bin_width or bins, not both")

    if bin_width is not None:
        if bin_width <= 0.0:
            raise AnalysisError("bin_width must be positive")
        low, high = float(np.min(array)), float(np.max(array))
        if high == low:
            # Degenerate sample: all mass in one bin, empirical entropy 0.
            return float(np.log(bin_width)) if include_bin_width_term else 0.0
        n_bins = int(np.ceil((high - low) / bin_width))
        edges = low + bin_width * np.arange(n_bins + 1)
        counts, edges = np.histogram(array, bins=edges)
        width = bin_width
    else:
        if bins is None:
            bins = "fd"
        counts, edges = np.histogram(array, bins=bins)
        widths = np.diff(edges)
        width = float(widths[0]) if widths.size else 1.0

    n = array.size
    probabilities = counts[counts > 0] / n
    discrete_entropy = float(-np.sum(probabilities * np.log(probabilities)))
    if include_bin_width_term:
        return discrete_entropy + float(np.log(width))
    return discrete_entropy


def moddemeijer_entropy(sample: np.ndarray, bin_width: float) -> float:
    """The estimator the paper's adversary uses (equation (25)).

    A fixed ``bin_width`` is used for every sample of an experiment, and the
    constant ``log(bin_width)`` term is dropped: only differences between
    classes matter for the Bayes decision.  The probability-weighted sum makes
    the estimate robust to the occasional outlier interval, which is why the
    paper prefers it over the sample variance under cross traffic.
    """
    return histogram_entropy(sample, bin_width=bin_width, include_bin_width_term=False)


def moddemeijer_entropy_rows(samples: np.ndarray, bin_width: float) -> np.ndarray:
    """:func:`moddemeijer_entropy` of every row of a ``(n_samples, sample_size)`` matrix.

    Each value is bit-identical to :func:`moddemeijer_entropy` on that row,
    which takes two steps beyond a plain floor-binning:

    * **Exact bins.**  ``numpy.histogram`` places ``x`` in the last bin ``k``
      whose edge ``low + bin_width * k`` is ``<= x`` (the final bin also
      takes its right edge) and drops values above the last edge.  The
      floor-division guess ``(x - low) // bin_width`` can miss that bin by
      one near an edge, so every guess is corrected against the same edge
      expression the 1-D path evaluates.
    * **Summation order.**  ``np.sum`` adds a row's ``p log p`` terms pairwise
      onto its identity ``0.0``; ``np.add.reduceat`` adds a segment's later
      elements pairwise onto its first.  So each row's terms follow a ``0.0``
      slot, and one ``reduceat`` call gives every row the 1-D sum's bits.
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim != 2:
        raise AnalysisError("moddemeijer_entropy_rows expects a 2-D matrix of samples")
    if rows.shape[1] < 2:
        raise AnalysisError("histogram_entropy needs at least 2 observations")
    # NaN reaches both row extremes and an infinity one of them.
    low = rows.min(axis=1, keepdims=True)
    high = rows.max(axis=1, keepdims=True)
    if not (np.isfinite(low).all() and np.isfinite(high).all()):
        raise AnalysisError("histogram_entropy received non-finite values")
    if bin_width <= 0.0:
        raise AnalysisError("bin_width must be positive")
    n_rows, size = rows.shape
    if n_rows == 0:
        return np.empty(0)
    n_bins = np.ceil((high - low) / bin_width)

    # The last k with low + bin_width * k <= x.  The guess lies in [0, n_bins]
    # and the edges never decrease in k, so the correction walks
    # monotonically to that k.  Both checks evaluate edges into one buffer.
    bins = np.subtract(rows, low)
    np.floor(np.divide(bins, bin_width, out=bins), out=bins)
    edge = np.empty_like(rows)
    down, up = np.empty((2, n_rows, size), dtype=bool)
    while True:
        np.greater(np.add(np.multiply(bins, bin_width, out=edge), low, out=edge), rows, out=down)
        np.multiply(np.add(bins, 1.0, out=edge), bin_width, out=edge)
        np.less_equal(np.add(edge, low, out=edge), rows, out=up)
        if not (down.any() or up.any()):
            break
        bins -= down
        bins += up
    # Only a k >= n_bins is past the final bin: it joins that bin, or is
    # dropped (as +inf) when the value lies above the last edge.
    over = np.flatnonzero(np.greater_equal(bins, n_bins, out=up))
    if over.size:
        last = n_bins[over // size, 0]
        above = rows.ravel()[over] > low[over // size, 0] + bin_width * last
        bins.ravel()[over] = np.where(above, np.inf, np.maximum(last - 1.0, 0.0))
    bins.sort(axis=1)

    # Runs of equal bins, by row then bin, are the occupied bins.  Each row's
    # first run starts at its first column and holds its minimum, on edge 0.
    flat = bins.ravel()
    boundary = down.ravel()
    np.not_equal(flat[1:], flat[:-1], out=boundary[1:])
    boundary[::size] = True
    starts = np.flatnonzero(boundary)
    counts = np.append(starts[1:], flat.size) - starts
    occupied = flat[starts] != np.inf
    starts = starts[occupied]
    probabilities = counts[occupied] / size

    # Term i of row r sits in slot i + r + 1, after that row's 0.0 slot.
    row_of = starts // size
    terms = np.zeros(starts.size + n_rows)
    terms[np.arange(1, starts.size + 1) + row_of] = probabilities * np.log(probabilities)
    segments = np.arange(n_rows)
    entropy = -np.add.reduceat(terms, segments + np.searchsorted(row_of, segments))
    # Degenerate rows (all values equal): all mass in one bin, entropy +0.0.
    entropy[(high == low)[:, 0]] = 0.0
    return entropy


__all__ = [
    "normal_differential_entropy",
    "histogram_entropy",
    "moddemeijer_entropy",
    "moddemeijer_entropy_rows",
]
