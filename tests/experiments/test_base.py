"""Tests for the experiment scenario/collection machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, ScenarioConfig, collect_labelled_intervals
from repro.experiments.base import apply_analytic_network_noise
from repro.padding import cit_policy, vit_policy


class TestScenarioConfig:
    def test_defaults_match_paper_setup(self):
        scenario = ScenarioConfig()
        assert scenario.policy.kind == "CIT"
        assert scenario.low_rate_pps == 10.0
        assert scenario.high_rate_pps == 40.0
        assert scenario.n_hops == 0
        assert scenario.rate_labels == {"low": 10.0, "high": 40.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(low_rate_pps=40.0, high_rate_pps=10.0)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(high_rate_pps=200.0)  # exceeds the 100 pps padded rate
        with pytest.raises(ConfigurationError):
            ScenarioConfig(cross_utilization=0.3)  # cross traffic without hops
        with pytest.raises(ConfigurationError):
            ScenarioConfig(n_hops=-1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(warmup_time=-1.0)

    def test_cross_utilization_without_hops_names_both_fields(self):
        """Regression: the error must name the offending fields and values."""
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioConfig(cross_utilization=0.3, n_hops=0)
        message = str(excinfo.value)
        assert "cross_utilization=0.3" in message
        assert "n_hops=0" in message

    @pytest.mark.parametrize(
        "kwargs, fragments",
        [
            (dict(low_rate_pps=40.0, high_rate_pps=10.0), ("high_rate_pps=10.0", "low_rate_pps=40.0")),
            (dict(high_rate_pps=200.0), ("high_rate_pps=200.0", "padded rate")),
            (dict(n_hops=-1), ("n_hops=-1",)),
            (dict(n_hops=1, cross_utilization=1.5), ("cross_utilization=1.5",)),
            (dict(warmup_time=-1.0), ("warmup_time=-1.0",)),
        ],
    )
    def test_validation_errors_name_field_and_value(self, kwargs, fragments):
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioConfig(**kwargs)
        for fragment in fragments:
            assert fragment in str(excinfo.value)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(packet_size_bytes=0), "packet_size_bytes=0"),
            (dict(packet_size_bytes=-512), "packet_size_bytes=-512"),
            (dict(link_rate_bps=0.0), "link_rate_bps=0.0"),
            (dict(link_rate_bps=-20e6), "link_rate_bps=-20000000.0"),
            (dict(link_rate_bps=float("nan")), "link_rate_bps=nan"),
            (dict(low_rate_pps=-5.0), "low_rate_pps=-5.0"),
            (dict(low_rate_pps=float("nan")), "low_rate_pps=nan"),
        ],
    )
    def test_degenerate_inputs_rejected(self, kwargs, fragment):
        """Regression: the kernel ran these silently; the reference raised late."""
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioConfig(**kwargs)
        assert fragment in str(excinfo.value)

    def test_zero_low_rate_is_allowed(self):
        assert ScenarioConfig(low_rate_pps=0.0).rate_labels["low"] == 0.0

    def test_net_variance_zero_without_hops(self):
        assert ScenarioConfig().net_piat_variance() == 0.0

    def test_net_variance_grows_with_utilization_and_hops(self):
        light = ScenarioConfig(n_hops=1, cross_utilization=0.1).net_piat_variance()
        heavy = ScenarioConfig(n_hops=1, cross_utilization=0.4).net_piat_variance()
        long_path = ScenarioConfig(n_hops=10, cross_utilization=0.1).net_piat_variance()
        assert 0.0 < light < heavy
        assert long_path == pytest.approx(10 * light)

    def test_variance_ratio_ordering(self):
        cit = ScenarioConfig(policy=cit_policy())
        vit = ScenarioConfig(policy=vit_policy(sigma_t=1e-3))
        noisy = ScenarioConfig(n_hops=1, cross_utilization=0.4)
        assert cit.variance_ratio() > noisy.variance_ratio() > 1.0
        assert vit.variance_ratio() == pytest.approx(1.0, abs=1e-3)

    def test_with_cross_utilization_copies(self):
        base = ScenarioConfig(n_hops=1)
        loaded = base.with_cross_utilization(0.3)
        assert loaded.cross_utilization == 0.3
        assert base.cross_utilization == 0.0
        assert loaded.policy is base.policy


class TestCollection:
    @pytest.mark.parametrize("mode", list(CollectionMode))
    def test_every_mode_produces_labelled_captures(self, mode):
        scenario = ScenarioConfig(n_hops=1 if mode is CollectionMode.SIMULATION else 0,
                                  cross_utilization=0.1 if mode is CollectionMode.SIMULATION else 0.0)
        capture = collect_labelled_intervals(scenario, 2000, mode=mode, seed=7)
        assert set(capture.intervals) == {"low", "high"}
        for values in capture.intervals.values():
            assert values.shape == (2000,)
            assert np.all(values > 0.0)
            assert np.mean(values) == pytest.approx(0.01, rel=0.02)

    def test_captures_reproduce_with_same_seed(self):
        scenario = ScenarioConfig()
        a = collect_labelled_intervals(scenario, 500, mode=CollectionMode.SIMULATION, seed=3)
        b = collect_labelled_intervals(scenario, 500, mode=CollectionMode.SIMULATION, seed=3)
        assert np.array_equal(a.intervals["high"], b.intervals["high"])

    def test_train_and_test_offsets_are_independent(self):
        scenario = ScenarioConfig()
        train = collect_labelled_intervals(scenario, 500, seed=3, seed_offset="train")
        test = collect_labelled_intervals(scenario, 500, seed=3, seed_offset="test")
        assert not np.array_equal(train.intervals["low"], test.intervals["low"])

    def test_measured_ratio_tracks_model(self):
        scenario = ScenarioConfig()
        capture = collect_labelled_intervals(scenario, 20_000, mode=CollectionMode.SIMULATION, seed=5)
        assert capture.measured_variance_ratio() == pytest.approx(
            scenario.variance_ratio(), rel=0.25
        )
        means = capture.measured_means()
        assert means["low"] == pytest.approx(means["high"], rel=1e-3)

    def test_hybrid_mode_adds_network_variance(self):
        clean = ScenarioConfig()
        noisy = ScenarioConfig(n_hops=5, cross_utilization=0.3)
        capture_clean = collect_labelled_intervals(clean, 5000, mode=CollectionMode.HYBRID, seed=9)
        capture_noisy = collect_labelled_intervals(noisy, 5000, mode=CollectionMode.HYBRID, seed=9)
        assert np.var(capture_noisy.intervals["low"]) > 2 * np.var(capture_clean.intervals["low"])

    def test_too_small_capture_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            collect_labelled_intervals(ScenarioConfig(), 1)
        assert "n_intervals_per_class=1" in str(excinfo.value)

    def test_unknown_mode_rejected_with_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            collect_labelled_intervals(ScenarioConfig(), 100, mode="warp-speed")
        message = str(excinfo.value)
        assert "mode='warp-speed'" in message
        for valid in ("simulation", "hybrid", "analytic"):
            assert valid in message


class TestAnalyticNetworkNoise:
    def test_noise_preserves_mean_and_adds_variance(self, rng):
        scenario = ScenarioConfig(n_hops=3, cross_utilization=0.3)
        intervals = np.full(5000, 0.01)
        noisy = apply_analytic_network_noise(intervals, scenario, rng)
        assert noisy.shape[0] == intervals.shape[0]
        assert np.mean(noisy) == pytest.approx(0.01, rel=1e-3)
        assert np.var(noisy) == pytest.approx(scenario.net_piat_variance(), rel=0.1)
        assert np.all(noisy >= 0.0)

    def test_zero_utilization_is_identity(self, rng):
        scenario = ScenarioConfig()
        intervals = np.full(100, 0.01)
        assert np.array_equal(apply_analytic_network_noise(intervals, scenario, rng), intervals)

    @pytest.mark.parametrize("seed", [0, 1, 2003, 987654321])
    @pytest.mark.parametrize("std", [1e-6, 3.7e-4, 0.01, 2.5])
    @pytest.mark.parametrize("size", [1, 7, 1000, 40001])
    def test_scaled_standard_normal_is_rng_normal_bit_for_bit(self, seed, std, size):
        scaled = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        delays = scaled.standard_normal(size)
        delays *= std
        expected = reference.normal(0.0, std, size)
        assert np.array_equal(delays.view(np.int64), expected.view(np.int64))
        # Both draw the same count, so later draws from the generator agree too.
        assert scaled.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 5, 2003])
    @pytest.mark.parametrize("n_hops, utilization", [(1, 0.1), (3, 0.3), (8, 0.6)])
    def test_matches_the_sort_of_the_noisy_timestamps(self, seed, n_hops, utilization):
        scenario = ScenarioConfig(n_hops=n_hops, cross_utilization=utilization)
        intervals = np.random.default_rng(seed).exponential(0.01, 3000)
        got = apply_analytic_network_noise(intervals, scenario, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        timestamps = np.concatenate(([0.0], np.cumsum(intervals)))
        std = float(np.sqrt(scenario.net_piat_variance() / 2.0))
        expected = np.diff(np.sort(timestamps + rng.normal(0.0, std, size=timestamps.size)))
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
