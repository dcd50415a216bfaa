"""Tests for normality diagnostics."""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats as sps

from repro.exceptions import AnalysisError
from repro.experiments.base import CollectionMode, ScenarioConfig, collect_labelled_intervals
from repro.stats import jarque_bera_normality, normality_report, qq_deviation
from repro.stats.normality import _normal_quantiles, _standard_normal_quantiles


def assert_moments_match_scipy(data, report):
    """Skewness, kurtosis and Jarque–Bera agree with scipy's biased defaults."""
    reference = sps.jarque_bera(data)
    expected = (
        (report.skewness, sps.skew(data)),
        (report.excess_kurtosis, sps.kurtosis(data)),
        (report.jarque_bera_statistic, reference.statistic),
        (report.jarque_bera_pvalue, reference.pvalue),
    )
    for value, oracle in expected:
        assert value == pytest.approx(float(oracle), rel=1e-9, abs=1e-12)


class TestJarqueBera:
    def test_normal_data_not_rejected(self, rng):
        data = rng.normal(size=2000)
        _, pvalue = jarque_bera_normality(data)
        assert pvalue > 0.01

    def test_exponential_data_rejected(self, rng):
        data = rng.exponential(size=2000)
        _, pvalue = jarque_bera_normality(data)
        assert pvalue < 0.01

    def test_small_sample_rejected(self):
        with pytest.raises(AnalysisError):
            jarque_bera_normality([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value", [0.0, 1.0, 0.1, -3e8])
    def test_constant_sample_rejected(self, value):
        with pytest.raises(AnalysisError, match="constant sample"):
            jarque_bera_normality(np.full(100, value))


class TestQQDeviation:
    def test_normal_data_has_small_deviation(self, rng):
        assert qq_deviation(rng.normal(5.0, 3.0, size=2000)) < 0.1

    def test_heavy_tailed_data_has_large_deviation(self, rng):
        data = rng.standard_t(df=1, size=2000)  # Cauchy-like
        assert qq_deviation(data) > 0.3

    def test_constant_sample_rejected(self):
        with pytest.raises(AnalysisError):
            qq_deviation(np.full(100, 1.0))
        with pytest.raises(AnalysisError, match="constant sample"):
            normality_report(np.full(100, 1.0))

    @pytest.mark.parametrize("size", [8, 9, 1000, 4999])
    def test_quantiles_match_scipy(self, size):
        levels = (np.arange(1, size + 1) - 0.5) / size
        np.testing.assert_allclose(
            _normal_quantiles(size, 10.0, 2.0),
            sps.norm.ppf(levels, loc=10.0, scale=2.0),
            rtol=1e-12,
            atol=0.0,
        )

    @pytest.mark.parametrize(
        "size, mean, std",
        [
            (8, 0.0, 1.0),
            (9, 10.0, 2.0),
            (1000, 0.01, 1.3e-5),
            (4999, -3.5, 0.7),
            (40_000, 0.01, 2e-5),
        ],
    )
    def test_cached_quantiles_equal_the_per_point_loop(self, size, mean, std):
        """Scaled standard quantiles are bit-identical to ``NormalDist(mean, std).inv_cdf``."""
        inv_cdf = NormalDist(mean, std).inv_cdf
        expected = np.array([inv_cdf((i - 0.5) / size) for i in range(1, size + 1)])
        for _ in range(2):  # the second call is served from the cache
            got = _normal_quantiles(size, mean, std)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("size", [1, 2, 8, 40_001])
    def test_standard_quantiles_equal_the_list_form_and_are_read_only(self, size):
        """Built without a list of floats, yet the same ``inv_cdf`` calls and bits."""
        inv_cdf = NormalDist().inv_cdf
        expected = np.array([inv_cdf((i - 0.5) / size) for i in range(1, size + 1)])
        got = _standard_normal_quantiles(size)
        assert got.dtype == np.float64 and got.shape == (size,)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1.0


class TestNormalityReport:
    def test_report_fields_for_normal_data(self, rng):
        data = rng.normal(10.0, 2.0, size=5000)
        report = normality_report(data)
        assert report.size == 5000
        assert report.mean == pytest.approx(10.0, abs=0.1)
        assert report.std == pytest.approx(2.0, rel=0.05)
        assert abs(report.skewness) < 0.2
        assert abs(report.excess_kurtosis) < 0.3
        assert report.looks_normal
        assert_moments_match_scipy(data, report)

    def test_report_flags_exponential_data(self, rng):
        data = rng.exponential(size=5000)
        report = normality_report(data)
        assert not report.looks_normal
        assert report.skewness > 1.0
        assert_moments_match_scipy(data, report)

    @pytest.mark.parametrize("seed", range(8))
    def test_simulated_padded_piat_is_symmetric_and_leptokurtic(self, seed):
        """Simulated padded PIATs are bell-shaped but heavier-tailed than Gaussian.

        Section 4 assumes a Gaussian PIAT.  Real SIMULATION captures (CIT,
        paper rates, tap at the gateway) are symmetric, but the gateway's
        interrupt disturbance gives them an excess kurtosis of 1.2-3.9 over
        these seeds, and ``looks_normal`` fails for some of them.  The test
        pins that shape instead of the assumption.
        """
        capture = collect_labelled_intervals(
            ScenarioConfig(), 2000, CollectionMode.SIMULATION, seed=seed
        )
        for label, intervals in capture.intervals.items():
            report = normality_report(intervals)
            assert abs(report.skewness) < 0.2, (label, report.skewness)
            assert 1.0 < report.excess_kurtosis < 5.0, (label, report.excess_kurtosis)

    def test_non_finite_rejected(self):
        with pytest.raises(AnalysisError):
            normality_report(np.array([1.0, np.nan] * 10))
