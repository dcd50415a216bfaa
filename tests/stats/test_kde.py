"""Tests for Gaussian kernel density estimation."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro.exceptions import AnalysisError
from repro.stats import GaussianKDE, scott_bandwidth, silverman_bandwidth
from repro.stats import kde as kde_module


class TestBandwidthRules:
    def test_silverman_matches_formula_for_normal_data(self, rng):
        data = rng.normal(0.0, 2.0, size=1000)
        h = silverman_bandwidth(data)
        std = np.std(data, ddof=1)
        q75, q25 = np.percentile(data, [75, 25])
        expected = 0.9 * min(std, (q75 - q25) / 1.34) * 1000 ** (-0.2)
        assert h == pytest.approx(expected)

    def test_scott_matches_formula(self, rng):
        data = rng.normal(0.0, 1.0, size=500)
        assert scott_bandwidth(data) == pytest.approx(1.06 * np.std(data, ddof=1) * 500 ** (-0.2))

    def test_degenerate_sample_gives_tiny_positive_bandwidth(self):
        data = np.full(50, 3.0)
        assert silverman_bandwidth(data) > 0.0
        assert scott_bandwidth(data) > 0.0

    def test_bandwidth_needs_two_points(self):
        with pytest.raises(AnalysisError):
            silverman_bandwidth([1.0])
        with pytest.raises(AnalysisError):
            scott_bandwidth([1.0])


class TestGaussianKDE:
    def test_pdf_integrates_to_one(self, rng):
        data = rng.normal(5.0, 2.0, size=400)
        kde = GaussianKDE(data)
        grid = kde.grid(2001, padding=6.0)
        integral = np.trapezoid(kde.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=0.01)

    def test_recovers_normal_density(self, rng):
        data = rng.normal(0.0, 1.0, size=5000)
        kde = GaussianKDE(data)
        xs = np.linspace(-2.0, 2.0, 21)
        estimated = kde.pdf(xs)
        truth = sps.norm.pdf(xs)
        assert np.max(np.abs(estimated - truth)) < 0.05

    def test_logpdf_is_log_of_pdf(self, rng):
        data = rng.normal(0.0, 1.0, size=200)
        kde = GaussianKDE(data)
        xs = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(np.log(kde.pdf(xs)), kde.logpdf(xs))

    def test_logpdf_finite_far_in_the_tail(self, rng):
        data = rng.normal(0.0, 1e-6, size=100)
        kde = GaussianKDE(data)
        value = kde.logpdf(1.0)  # a million bandwidths away
        assert np.isfinite(value)
        assert value < -1e3

    def test_scalar_and_array_interfaces(self, rng):
        kde = GaussianKDE(rng.normal(size=100))
        assert isinstance(kde.pdf(0.0), float)
        assert kde.pdf(np.zeros(3)).shape == (3,)

    @pytest.mark.parametrize("block_kernels", [1, 7, 1 << 18])
    def test_array_logpdf_equals_per_point_logpdf(self, rng, monkeypatch, block_kernels):
        """Row blocks and batch size do not change a single bit of any point's value."""
        kde = GaussianKDE(rng.normal(size=50))
        points = np.concatenate([rng.normal(0.0, 3.0, size=300), [1e3, -1e3]])
        expected = np.array([kde.logpdf(float(p)) for p in points])
        monkeypatch.setattr(kde_module, "_BLOCK_KERNELS", block_kernels)
        assert np.array_equal(kde.logpdf(points).view(np.int64), expected.view(np.int64))

    def test_explicit_bandwidth(self, rng):
        data = rng.normal(size=100)
        kde = GaussianKDE(data, bandwidth=0.5)
        assert kde.bandwidth == 0.5

    def test_bimodal_data_shows_two_modes(self, rng):
        data = np.concatenate([rng.normal(-3, 0.5, 500), rng.normal(3, 0.5, 500)])
        kde = GaussianKDE(data)
        assert kde.pdf(-3.0) > kde.pdf(0.0)
        assert kde.pdf(3.0) > kde.pdf(0.0)

    def test_validation(self, rng):
        with pytest.raises(AnalysisError):
            GaussianKDE([1.0])
        with pytest.raises(AnalysisError):
            GaussianKDE(np.zeros((3, 3)))
        with pytest.raises(AnalysisError):
            GaussianKDE([1.0, np.nan])
        with pytest.raises(AnalysisError):
            GaussianKDE(rng.normal(size=10), bandwidth=-1.0)
        with pytest.raises(AnalysisError):
            GaussianKDE(rng.normal(size=10), bandwidth="unknown-rule")
        with pytest.raises(AnalysisError):
            GaussianKDE(rng.normal(size=10)).grid(1)

    def test_n_property(self, rng):
        assert GaussianKDE(rng.normal(size=77)).n == 77
