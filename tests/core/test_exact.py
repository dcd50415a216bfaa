"""Tests for the exact Bayes detection rates under the Gaussian model."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core import (
    detection_rate_entropy_exact,
    detection_rate_mean_exact,
    detection_rate_variance_exact,
)
from repro.core import exact
from repro.core.theorems import detection_rate_mean, detection_rate_variance
from repro.exceptions import AnalysisError


class TestExactMean:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_mean_exact(1.0) == 0.5

    def test_monotone_in_r(self):
        rates = [detection_rate_mean_exact(r) for r in (1.0, 1.2, 2.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_against_monte_carlo(self, rng):
        """Exact rate matches brute-force Bayes classification of Gaussian draws."""
        r = 3.0
        n = 400_000
        low = rng.normal(0.0, 1.0, size=n)
        high = rng.normal(0.0, np.sqrt(r), size=n)
        threshold = np.sqrt(r * np.log(r) / (r - 1.0))
        correct = np.sum(np.abs(low) < threshold) + np.sum(np.abs(high) >= threshold)
        assert correct / (2 * n) == pytest.approx(detection_rate_mean_exact(r), abs=0.01)

    def test_approximation_tracks_exact(self):
        """Theorem 1's closed form stays within a few points of the exact rate."""
        for r in (1.0, 1.3, 1.8, 2.5, 4.0):
            assert detection_rate_mean(r) == pytest.approx(
                detection_rate_mean_exact(r), abs=0.08
            )

    def test_invalid_ratio(self):
        with pytest.raises(AnalysisError):
            detection_rate_mean_exact(0.5)


class TestExactVariance:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_variance_exact(1.0, 1000) == 0.5

    def test_monotone_in_n(self):
        rates = [detection_rate_variance_exact(1.5, n) for n in (5, 50, 500, 5000)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_approaches_one_for_large_samples(self):
        assert detection_rate_variance_exact(1.8, 50_000) > 0.999

    def test_against_monte_carlo(self, rng):
        """Exact chi-square expression matches simulated sample-variance classification."""
        r, n, trials = 2.0, 50, 20_000
        low = rng.normal(0.0, 1.0, size=(trials, n)).var(axis=1, ddof=1)
        high = rng.normal(0.0, np.sqrt(r), size=(trials, n)).var(axis=1, ddof=1)
        threshold = r * np.log(r) / (r - 1.0)
        correct = np.sum(low <= threshold) + np.sum(high > threshold)
        assert correct / (2 * trials) == pytest.approx(
            detection_rate_variance_exact(r, n), abs=0.01
        )

    def test_theorem2_is_conservative_at_moderate_n(self):
        """The paper's approximation under-estimates the exact Bayes rate."""
        for n in (200, 1000, 5000):
            assert detection_rate_variance(1.8, n) <= detection_rate_variance_exact(1.8, n) + 1e-9

    def test_sample_size_validation(self):
        with pytest.raises(AnalysisError):
            detection_rate_variance_exact(2.0, 1)
        # Non-integral sizes are rejected, not truncated to the n=2 rate.
        for size in (1.5, 2.9, 2.0, "3", None):
            with pytest.raises(AnalysisError, match="integer"):
                detection_rate_variance_exact(2.0, size)
        assert detection_rate_variance_exact(2.0, np.int64(50)) == detection_rate_variance_exact(
            2.0, 50
        )


class TestExactEntropy:
    def test_equals_exact_variance(self):
        assert detection_rate_entropy_exact(1.7, 300) == detection_rate_variance_exact(1.7, 300)


class TestProperties:
    @given(
        r=st.floats(min_value=1.0, max_value=50.0),
        n=st.integers(min_value=2, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_rates_lie_in_half_one(self, r, n):
        assert 0.5 <= detection_rate_mean_exact(r) <= 1.0
        assert 0.5 <= detection_rate_variance_exact(r, n) <= 1.0

    @given(r=st.floats(min_value=1.001, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_variance_beats_exact_mean_for_large_samples(self, r):
        """With enough data, dispersion features dominate the mean (the paper's point)."""
        assert detection_rate_variance_exact(r, 5000) >= detection_rate_mean_exact(r) - 1e-9


# Degrees of freedom 1-59 exhaustively, then geometrically up to 49,999 (the
# n = 50,000 sample size); ratios down to r -> 1, where the chi-square
# arguments sit on the median and both tails carry real mass.
ORACLE_DOFS = sorted(
    set(range(1, 60)) | {int(v) for v in np.geomspace(60, 49_999, 40)} | {49_999}
)
ORACLE_RATIOS = (
    1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6, 1.001, 1.01, 1.1, 1.5, 1.8, 2.0, 5.0, 20.0, 100.0
)


class TestAgainstScipy:
    """The closed forms against scipy, the reference implementation."""

    @staticmethod
    def assert_chi2_matches(x, dof):
        cdf, sf = exact._chi2_cdf_sf(x, dof)
        assert cdf == pytest.approx(sps.chi2.cdf(x, dof), rel=1e-10, abs=0.0), (x, dof)
        assert sf == pytest.approx(sps.chi2.sf(x, dof), rel=1e-10, abs=0.0), (x, dof)

    def test_chi2_cdf_and_sf(self):
        for dof in ORACLE_DOFS:
            for r in ORACLE_RATIOS:
                threshold = r * math.log(r) / (r - 1.0)
                # The two arguments detection_rate_variance_exact evaluates.
                self.assert_chi2_matches(dof * threshold, dof)
                self.assert_chi2_matches(dof * threshold / r, dof)

    def test_chi2_far_tails(self):
        for dof in (1, 2, 7, 60, 1000, 49_999):
            self.assert_chi2_matches(dof / 100.0, dof)
            self.assert_chi2_matches(dof * 4.0 + 50.0, dof)

    def test_mean_rate_normal_tails(self):
        """``erf``/``erfc`` in place of scipy's normal cdf/sf, within 1e-13 relative."""
        for r in np.concatenate([ORACLE_RATIOS, np.geomspace(1.0 + 1e-12, 1e4, 200)]):
            c = math.sqrt(r * math.log(r) / (r - 1.0))
            p_low = 2.0 * sps.norm.cdf(c) - 1.0
            p_high = 2.0 * sps.norm.sf(c / math.sqrt(r))
            assert detection_rate_mean_exact(r) == pytest.approx(
                max(0.5 * p_low + 0.5 * p_high, 0.5), rel=1e-13, abs=0.0
            ), r

    def test_variance_rate(self):
        for r in ORACLE_RATIOS:
            for n in (2, 3, 10, 59, 100, 1000, 50_000):
                threshold = r * math.log(r) / (r - 1.0)
                variance_rate = 0.5 * sps.chi2.cdf((n - 1) * threshold, n - 1) + 0.5 * sps.chi2.sf(
                    (n - 1) * threshold / r, n - 1
                )
                assert detection_rate_variance_exact(r, n) == pytest.approx(
                    max(variance_rate, 0.5), abs=1e-11
                ), (r, n)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(exact, "_MAX_ITERATIONS", 5)
        with pytest.raises(AnalysisError, match="did not converge"):
            exact._chi2_cdf_sf(1998.0, 2000)  # series branch
        with pytest.raises(AnalysisError, match="did not converge"):
            exact._chi2_cdf_sf(2020.0, 2000)  # continued-fraction branch
