"""Tests for the closed-form detection-rate formulas (Theorems 1-3)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    detection_rate_entropy,
    detection_rate_mean,
    detection_rate_mean_exact,
    detection_rate_variance,
    detection_rate_variance_exact,
    entropy_constant,
    variance_constant,
)
from repro.core.theorems import DETECTION_FLOOR, detection_rate
from repro.exceptions import AnalysisError


class TestTheorem1Mean:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_mean(1.0) == pytest.approx(0.5)

    def test_increasing_in_r(self):
        rates = [detection_rate_mean(r) for r in (1.0, 1.5, 2.0, 5.0, 50.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_bounded_by_one(self):
        assert detection_rate_mean(1e9) < 1.0

    def test_stays_modest_in_paper_regime(self):
        """Figure 4(b): the sample-mean detection rate hovers near 50%."""
        assert detection_rate_mean(2.0) < 0.6

    def test_invalid_ratio_rejected(self):
        with pytest.raises(AnalysisError):
            detection_rate_mean(0.9)
        with pytest.raises(AnalysisError):
            detection_rate_mean(float("inf"))


class TestTheorem2Variance:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_variance(1.0, 10_000) == DETECTION_FLOOR

    def test_constant_diverges_as_r_approaches_one(self):
        assert variance_constant(1.0) == math.inf
        assert variance_constant(1.0 + 1e-6) > 1e6

    def test_paper_formula_value(self):
        # Direct evaluation of equation (21) at r = 2.
        r = 2.0
        log_r = math.log(r)
        expected = 1.0 / (2 * (1 - log_r / (r - 1)) ** 2) + 1.0 / (
            2 * (r * log_r / (r - 1) - 1) ** 2
        )
        assert variance_constant(r) == pytest.approx(expected)

    def test_increases_with_sample_size(self):
        rates = [detection_rate_variance(1.8, n) for n in (10, 100, 1000, 10_000)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.99

    def test_increases_with_r(self):
        rates = [detection_rate_variance(r, 500) for r in (1.1, 1.5, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_never_below_floor(self):
        assert detection_rate_variance(1.0001, 3) == DETECTION_FLOOR

    def test_sample_size_validation(self):
        with pytest.raises(AnalysisError):
            detection_rate_variance(2.0, 1)


class TestTheorem3Entropy:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_entropy(1.0, 10_000) == DETECTION_FLOOR

    def test_constant_diverges_as_r_approaches_one(self):
        assert entropy_constant(1.0) == math.inf

    def test_paper_formula_value(self):
        r = 2.0
        log_r = math.log(r)
        expected = 1.0 / (2 * math.log(r * log_r / (r - 1)) ** 2) + 1.0 / (
            2 * math.log((r - 1) / log_r) ** 2
        )
        assert entropy_constant(r) == pytest.approx(expected)

    def test_increases_with_sample_size_and_r(self):
        assert detection_rate_entropy(1.8, 2000) > detection_rate_entropy(1.8, 100)
        assert detection_rate_entropy(3.0, 500) >= detection_rate_entropy(1.5, 500)

    def test_paper_shape_high_detection_at_n_1000(self):
        """Figure 4(b): by n = 1000 variance/entropy detection is near 100%."""
        for r in (1.6, 1.8, 2.2):
            assert detection_rate_entropy(r, 1000) > 0.95
            assert detection_rate_variance(r, 1000) > 0.95


class TestDispatch:
    def test_dispatch_by_name(self):
        assert detection_rate("mean", 2.0) == detection_rate_mean(2.0)
        assert detection_rate("variance", 2.0, 100) == detection_rate_variance(2.0, 100)
        assert detection_rate("entropy", 2.0, 100) == detection_rate_entropy(2.0, 100)

    def test_unknown_feature_rejected(self):
        with pytest.raises(AnalysisError):
            detection_rate("mad", 2.0, 100)


class TestTheoremSurfaces:
    def test_theorem_surfaces(self):
        """Theorems 1-3 next to the exact Bayes rates over a grid of r and n."""
        values = np.array(
            [
                (
                    detection_rate_mean(r),
                    detection_rate_mean_exact(r),
                    detection_rate_variance(r, n),
                    detection_rate_variance_exact(r, n),
                    detection_rate_entropy(r, n),
                )
                for r in (1.0, 1.2, 1.5, 2.0, 3.0, 5.0)
                for n in (10, 100, 1000, 10_000)
            ]
        )
        assert np.all(values >= 0.5) and np.all(values <= 1.0)
        # The approximations never exceed the exact Bayes rate by a wide margin.
        assert np.all(values[:, 2] <= values[:, 3] + 0.05)


class TestProperties:
    @given(
        r=st.floats(min_value=1.0, max_value=100.0),
        n=st.integers(min_value=2, max_value=100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_all_rates_lie_in_half_one(self, r, n):
        for value in (
            detection_rate_mean(r),
            detection_rate_variance(r, n),
            detection_rate_entropy(r, n),
        ):
            assert 0.5 <= value <= 1.0

    @given(
        r=st.floats(min_value=1.001, max_value=50.0),
        n_small=st.integers(min_value=2, max_value=1000),
        extra=st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity_in_sample_size(self, r, n_small, extra):
        assert detection_rate_variance(r, n_small + extra) >= detection_rate_variance(r, n_small)
        assert detection_rate_entropy(r, n_small + extra) >= detection_rate_entropy(r, n_small)

    @given(
        r_small=st.floats(min_value=1.0, max_value=20.0),
        bump=st.floats(min_value=0.001, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotonicity_in_r(self, r_small, bump):
        assert detection_rate_mean(r_small + bump) >= detection_rate_mean(r_small)
        assert detection_rate_variance(r_small + bump, 500) >= detection_rate_variance(r_small, 500)
        assert detection_rate_entropy(r_small + bump, 500) >= detection_rate_entropy(r_small, 500)
