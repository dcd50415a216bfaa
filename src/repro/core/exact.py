"""Exact Bayes detection rates for the Gaussian PIAT model.

The paper derives *approximate* closed forms (Theorems 1-3) because its goal
is to expose how the detection rate scales with ``r`` and ``n``.  Under the
same modelling assumptions (equations (12)-(15): the PIAT is normal with a
rate-independent mean and rate-dependent variance) the Bayes error can also
be computed exactly, which this module does.  The experiments report all
three — empirical, closed-form and exact — so the reader can see how much of
any discrepancy comes from the approximation versus from the Gaussian model
itself.

All functions assume two equiprobable payload rates, the paper's evaluation
setting; the exact expressions only depend on the variance ratio ``r``.
"""

from __future__ import annotations

import math
import operator

from repro.core.variance_ratio import check_ratio
from repro.exceptions import AnalysisError

# The expansions below need O(sqrt(a)) terms near the median: ~1.4k at a = 25,000.
_MAX_ITERATIONS = 100_000
_EPSILON = 2.0**-53


def _check_n(sample_size: int) -> int:
    try:
        n = operator.index(sample_size)
    except TypeError:
        raise AnalysisError(f"sample size must be an integer, got {sample_size!r}") from None
    if n < 2:
        raise AnalysisError(f"sample size must be >= 2, got {sample_size!r}")
    return n


def _chi2_cdf_sf(x: float, dof: int) -> tuple[float, float]:
    """Chi-square ``(cdf, sf)`` at ``x`` with integer ``dof`` degrees of freedom.

    These are the regularized incomplete gammas ``P(a, y)``, ``Q(a, y)`` at
    ``a = dof/2``, ``y = x/2``.  Below ``y = a + 1`` the power series gives ``P``
    (at most ~0.6 there, so ``1 - P`` keeps its relative precision); above it,
    Lentz's continued fraction gives ``Q``.
    """
    a, y = 0.5 * dof, 0.5 * x
    prefactor = math.exp(a * math.log(y) - y - math.lgamma(a))
    if y < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, _MAX_ITERATIONS):
            term *= y / (a + k)
            total += term
            if term < total * _EPSILON:
                return total * prefactor, 1.0 - total * prefactor
    else:
        # For y >= a + 1 both Lentz denominators stay above b/2 (induction on
        # i), so the usual guards against a zero denominator are not needed.
        b = y + 1.0 - a
        c, d = math.inf, 1.0 / b
        fraction = d
        for i in range(1, _MAX_ITERATIONS):
            an, b = -i * (i - a), b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            fraction *= d * c
            if abs(d * c - 1.0) < _EPSILON:
                return 1.0 - fraction * prefactor, fraction * prefactor
    raise AnalysisError(f"chi-square tail did not converge for x={x!r}, dof={dof!r}")


def detection_rate_mean_exact(r: float) -> float:
    """Exact Bayes detection rate using the sample mean.

    Both conditional sample-mean distributions are normal with the same mean
    and variances ``sigma_l^2/n`` and ``sigma_h^2/n``; the ``1/n`` factor
    cancels from the likelihood-ratio threshold, so the rate depends only on
    ``r`` — the formal statement of Theorem 1's observation that sample size
    does not help the adversary.
    """
    r = check_ratio(r)
    if r == 1.0:
        return 0.5
    # With sigma_l = 1 and sigma_h = sqrt(r), the densities cross at |x| = c:
    c = math.sqrt(r * math.log(r) / (r - 1.0))
    # P(correct | low)  = P(|X_l| < c),  X_l ~ N(0, 1)
    p_low = math.erf(c / math.sqrt(2.0))
    # P(correct | high) = P(|X_h| > c),  X_h ~ N(0, r)
    p_high = math.erfc(c / math.sqrt(2.0 * r))
    # The Bayes rate is >= 0.5 exactly; clamp the ~1e-15 cancellation error
    # the two CDF evaluations can leave just below it for r -> 1.
    return min(max(0.5 * p_low + 0.5 * p_high, 0.5), 1.0)


def detection_rate_variance_exact(r: float, sample_size: int) -> float:
    """Exact Bayes detection rate using the unbiased sample variance.

    For a normal sample, ``(n-1) Y / sigma^2`` is chi-square with ``n-1``
    degrees of freedom.  The likelihood-ratio threshold between the two
    scaled chi-square densities is ``y* = sigma_l^2 r ln r / (r - 1)``, and
    the detection rate follows from the chi-square CDF on either side.
    """
    n = _check_n(sample_size)
    r = check_ratio(r)
    if r == 1.0:
        return 0.5
    dof = n - 1
    # Work in units of sigma_l^2 = 1, sigma_h^2 = r.
    threshold = r * math.log(r) / (r - 1.0)
    p_low = _chi2_cdf_sf(dof * threshold, dof)[0]      # Y_l <= y*
    p_high = _chi2_cdf_sf(dof * threshold / r, dof)[1]  # Y_h  > y*
    # The Bayes rate is >= 0.5 exactly; clamp the ~1e-15 cancellation error
    # the two CDF evaluations can leave just below it for r -> 1.
    return min(max(0.5 * p_low + 0.5 * p_high, 0.5), 1.0)


def detection_rate_entropy_exact(r: float, sample_size: int) -> float:
    """Exact Bayes detection rate for the idealised (plug-in) sample entropy.

    The differential entropy of a normal distribution is a strictly
    increasing function of its variance (``H = 0.5 ln(2 pi e sigma^2)``), so
    the plug-in entropy estimate ``0.5 ln(2 pi e Y)`` is a monotone transform
    of the sample variance ``Y``.  A Bayes decision is invariant under
    monotone transforms of the feature, hence the exact rate coincides with
    :func:`detection_rate_variance_exact`.  (The paper's *histogram*
    estimator is a different statistic with different finite-sample
    behaviour — that difference is what Theorem 3 and the empirical results
    capture.)
    """
    return detection_rate_variance_exact(r, sample_size)


__all__ = [
    "detection_rate_mean_exact",
    "detection_rate_variance_exact",
    "detection_rate_entropy_exact",
]
