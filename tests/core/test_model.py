"""Tests for the Gaussian PIAT model."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro.core import GaussianPIATModel
from repro.exceptions import AnalysisError
from repro.padding import InterruptDisturbance, cit_policy, vit_policy
from repro.stats import normality_report


class TestConstruction:
    def test_direct_construction_and_properties(self):
        model = GaussianPIATModel(tau=0.01, sigma_low=1e-5, sigma_high=1.5e-5)
        assert model.variance_ratio == pytest.approx(2.25)
        assert model.padded_rate_pps == pytest.approx(100.0)
        assert model.variance_low == pytest.approx(1e-10)
        assert model.variance_high == pytest.approx(2.25e-10)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            GaussianPIATModel(tau=0.0, sigma_low=1e-5, sigma_high=2e-5)
        with pytest.raises(AnalysisError):
            GaussianPIATModel(tau=0.01, sigma_low=0.0, sigma_high=1e-5)
        with pytest.raises(AnalysisError):
            GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=1e-5)

    def test_from_components_matches_equation_13_and_15(self):
        model = GaussianPIATModel.from_components(
            gw_variance_low=1e-10,
            gw_variance_high=3e-10,
            timer_variance=2e-10,
            net_variance=1e-10,
            tau=0.01,
        )
        assert model.variance_low == pytest.approx(4e-10)
        assert model.variance_high == pytest.approx(6e-10)
        assert model.variance_ratio == pytest.approx(1.5)

    def test_from_system_cit_vs_vit(self):
        disturbance = InterruptDisturbance()
        cit_model = GaussianPIATModel.from_system(cit_policy(), disturbance)
        vit_model = GaussianPIATModel.from_system(vit_policy(sigma_t=1e-3), disturbance)
        assert cit_model.variance_ratio > vit_model.variance_ratio
        assert vit_model.variance_ratio == pytest.approx(1.0, abs=1e-3)
        assert vit_model.sigma_low == pytest.approx(1e-3, rel=0.01)

    def test_from_system_with_path(self):
        disturbance = InterruptDisturbance()
        clean = GaussianPIATModel.from_system(cit_policy(), disturbance)
        behind_router = GaussianPIATModel.from_system(
            cit_policy(),
            disturbance,
            path_utilizations=[0.4],
            hop_service_time=8.2e-5,
        )
        assert behind_router.variance_ratio < clean.variance_ratio
        assert behind_router.sigma_low > clean.sigma_low

    def test_from_system_validation(self):
        with pytest.raises(AnalysisError):
            GaussianPIATModel.from_system(cit_policy(), low_rate_pps=40, high_rate_pps=10)
        with pytest.raises(AnalysisError):
            GaussianPIATModel.from_system(
                cit_policy(), path_utilizations=[0.3], hop_service_time=0.0
            )


class TestSampling:
    def test_sample_moments_match_model(self, rng):
        model = GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=4e-5)
        low = model.sample_intervals("low", 50_000, rng=rng)
        high = model.sample_intervals("high", 50_000, rng=rng)
        assert np.mean(low) == pytest.approx(0.01, rel=1e-3)
        assert np.mean(high) == pytest.approx(0.01, rel=1e-3)
        assert np.std(low) == pytest.approx(2e-5, rel=0.02)
        assert np.std(high) == pytest.approx(4e-5, rel=0.02)

    def test_samples_are_positive_and_normalish(self, rng):
        model = GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=4e-5)
        sample = model.sample_intervals("high", 5000, rng=rng)
        assert np.all(sample > 0.0)
        assert normality_report(sample).looks_normal

    def test_label_aliases(self, rng):
        model = GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=4e-5)
        assert np.std(model.sample_intervals("l", 20_000, rng=rng)) == pytest.approx(2e-5, rel=0.05)
        assert np.std(model.sample_intervals("H", 20_000, rng=rng)) == pytest.approx(4e-5, rel=0.05)

    def test_invalid_label_and_size(self, rng):
        model = GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=4e-5)
        with pytest.raises(AnalysisError):
            model.sample_intervals("medium", 10, rng=rng)
        with pytest.raises(AnalysisError):
            model.sample_intervals("low", 0, rng=rng)

    def test_pdf_peaks_at_tau(self):
        model = GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=4e-5)
        xs = np.array([0.0095, 0.01, 0.0105])
        pdf = model.pdf("low", xs)
        assert pdf[1] > pdf[0] and pdf[1] > pdf[2]
        # The high-rate PDF is wider, hence lower at the mode (Figure 4(a)).
        assert model.pdf("high", np.array([0.01]))[0] < pdf[1]
        # The closed form is the normal density.
        np.testing.assert_allclose(pdf, sps.norm.pdf(xs, loc=0.01, scale=2e-5), rtol=1e-13)

    def test_describe_mentions_ratio(self):
        model = GaussianPIATModel(tau=0.01, sigma_low=2e-5, sigma_high=4e-5)
        assert "r=" in model.describe()
