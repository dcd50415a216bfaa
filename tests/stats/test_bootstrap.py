"""Tests for bootstrap confidence intervals."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import AnalysisError
from repro.runner.grid import mean_and_ci
from repro.stats import bootstrap as bootstrap_module
from repro.stats import bootstrap_ci, bootstrap_detection_rate_ci


def band_bytes(result):
    """A result's estimate and bounds as exact hex strings."""
    return tuple(float(value).hex() for value in (result.estimate, result.lower, result.upper))


def assert_matches_reference(reference, data, statistic, seed, **kwargs):
    """The batched draw equals the per-resample loop to the bit, stream included."""
    expected_rng = np.random.default_rng(seed)
    actual_rng = np.random.default_rng(seed)
    expected = reference(data, statistic=statistic, rng=expected_rng, **kwargs)
    actual = bootstrap_ci(data, statistic=statistic, rng=actual_rng, **kwargs)
    assert band_bytes(actual) == band_bytes(expected)
    assert actual_rng.bit_generator.state == expected_rng.bit_generator.state


class TestBootstrapCI:
    def test_interval_brackets_the_estimate(self, rng):
        data = rng.normal(10.0, 1.0, size=200)
        result = bootstrap_ci(data, rng=rng)
        assert result.lower <= result.estimate <= result.upper
        assert result.contains(result.estimate)

    def test_interval_covers_true_mean_for_well_behaved_data(self, rng):
        data = rng.normal(5.0, 2.0, size=500)
        result = bootstrap_ci(data, confidence=0.99, rng=rng)
        assert result.contains(5.0)

    def test_width_shrinks_with_sample_size(self, rng):
        small = bootstrap_ci(rng.normal(size=30), rng=rng)
        large = bootstrap_ci(rng.normal(size=3000), rng=rng)
        assert large.width < small.width

    def test_custom_statistic(self, rng):
        data = rng.normal(size=300)
        result = bootstrap_ci(data, statistic=np.median, rng=rng)
        assert result.estimate == pytest.approx(float(np.median(data)))

    def test_reproducible_with_seeded_rng(self):
        data = np.arange(50.0)
        a = bootstrap_ci(data, rng=np.random.default_rng(3))
        b = bootstrap_ci(data, rng=np.random.default_rng(3))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_reproducible_without_rng(self):
        # Regression: the old implicit fallback was an *unseeded* generator,
        # so two identical calls returned different intervals.
        data = np.arange(50.0)
        a = bootstrap_ci(data)
        b = bootstrap_ci(data)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_seed_parameter_reproduces_and_varies_the_interval(self):
        data = np.arange(50.0)
        a = bootstrap_ci(data, seed=7)
        b = bootstrap_ci(data, seed=7)
        c = bootstrap_ci(data, seed=8)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_explicit_rng_wins_over_seed(self):
        data = np.arange(50.0)
        a = bootstrap_ci(data, rng=np.random.default_rng(3), seed=7)
        b = bootstrap_ci(data, rng=np.random.default_rng(3), seed=8)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_validation(self, rng):
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0], rng=rng)
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], confidence=1.5, rng=rng)
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], resamples=5, rng=rng)
        with pytest.raises(AnalysisError, match="resamples must be an integer"):
            bootstrap_ci([1.0, 2.0, 3.0], resamples=2000.0, rng=rng)
        with pytest.raises(AnalysisError, match="axis="):
            bootstrap_ci([1.0, 2.0, 3.0], statistic=lambda values: float(np.mean(values)))
        with pytest.raises(AnalysisError, match=r"axis=.*shape \(\) for 2000 resamples"):
            bootstrap_ci(
                [1.0, 2.0, 3.0],
                statistic=lambda values, axis=None: float(np.mean(values)),
            )

    def test_numpy_integer_resamples_accepted(self):
        result = bootstrap_ci([1.0, 2.0, 3.0], resamples=np.int64(50))
        assert result.resamples == 50
        assert type(result.resamples) is int


class TestBatchedResampling:
    """The batched draw reports exactly what the per-resample loop reported."""

    @pytest.mark.parametrize("statistic", [np.mean, np.median], ids=["mean", "median"])
    @pytest.mark.parametrize("n", [2, 3, 7, 129, 3000])
    def test_bit_equal_to_the_per_resample_loop(self, reference_bootstrap_ci, statistic, n):
        data = np.random.default_rng(n).normal(0.5, 2.0, size=n)
        assert_matches_reference(reference_bootstrap_ci, data, statistic, seed=n + 1)

    @pytest.mark.parametrize("n, draws", [(3, 1), (3000, 6)])
    def test_one_draw_per_block_not_per_resample(self, n, draws):
        class CountingRng:
            def __init__(self):
                self.generator = np.random.default_rng(0)
                self.calls = 0

            def integers(self, *args, **kwargs):
                self.calls += 1
                return self.generator.integers(*args, **kwargs)

        counting = CountingRng()
        bootstrap_ci(np.arange(float(n)), rng=counting)
        assert counting.calls == draws

    @pytest.mark.parametrize("statistic", [np.mean, np.median], ids=["mean", "median"])
    @pytest.mark.parametrize("n", [2, 3, 7, 129, 3000])
    def test_block_boundaries_cannot_move_a_band(self, monkeypatch, statistic, n):
        data = np.random.default_rng(n).normal(0.5, 2.0, size=n)
        batched = bootstrap_ci(data, statistic=statistic, seed=n)
        monkeypatch.setattr(bootstrap_module, "_BLOCK_INDICES", 7)
        blocked = bootstrap_ci(data, statistic=statistic, seed=n)
        assert band_bytes(blocked) == band_bytes(batched)

    @settings(max_examples=60, deadline=None)
    @given(
        sample=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64),
            min_size=2,
            max_size=40,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        statistic=st.sampled_from([np.mean, np.median]),
        resamples=st.integers(min_value=10, max_value=300),
        block=st.integers(min_value=1, max_value=200),
    )
    def test_property_equal_to_the_per_resample_loop(
        self, reference_bootstrap_ci, sample, seed, statistic, resamples, block
    ):
        with mock.patch.object(bootstrap_module, "_BLOCK_INDICES", block):
            assert_matches_reference(
                reference_bootstrap_ci, sample, statistic, seed, resamples=resamples
            )

    def test_pinned_bands(self):
        """Bands taken from the per-resample loop before batching, as literals."""
        assert mean_and_ci([0.8, 0.9, 0.95], "fig6/utilization=0.2/entropy/1000", 0.95) == (
            0.8833333333333334,
            (0.8000000000000002, 0.9499999999999998),
        )
        assert mean_and_ci([1.2, 1.47, 1.31, 1.05, 1.6], "fig4/r", 0.9) == (
            1.326,
            (1.184, 1.464),
        )
        result = bootstrap_ci(np.arange(50.0), statistic=np.median, seed=7)
        assert (result.lower, result.upper) == (18.0, 31.0)


class TestDetectionRateCI:
    def test_rate_and_bounds(self, rng):
        flags = [True] * 80 + [False] * 20
        result = bootstrap_detection_rate_ci(flags, rng=rng)
        assert result.estimate == pytest.approx(0.8)
        assert 0.7 < result.lower < 0.8 < result.upper < 0.9

    def test_all_correct(self, rng):
        result = bootstrap_detection_rate_ci([True] * 50, rng=rng)
        assert result.estimate == 1.0
        assert result.upper == 1.0

    def test_non_boolean_rejected(self, rng):
        with pytest.raises(AnalysisError):
            bootstrap_detection_rate_ci([0.5, 0.7], rng=rng)

    def test_too_few_trials_rejected(self, rng):
        with pytest.raises(AnalysisError):
            bootstrap_detection_rate_ci([True], rng=rng)

    def test_reproducible_without_rng(self):
        flags = [True] * 30 + [False] * 20
        a = bootstrap_detection_rate_ci(flags)
        b = bootstrap_detection_rate_ci(flags)
        assert (a.lower, a.upper) == (b.lower, b.upper)
