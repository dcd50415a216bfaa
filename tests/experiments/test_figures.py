"""Integration tests for the figure experiments.

Most tests share one small configuration per figure (analytic or short
simulation captures).  Each class's ``test_paper_shape*`` tests run the
larger, figure-fidelity configurations and assert the shape the paper
reports: who wins, and roughly by how much.
"""

from __future__ import annotations

import pytest

from repro.api import get_experiment
from repro.exceptions import ConfigurationError
from repro.experiments.fig8 import DIURNAL_MULTIPLIERS
from repro.experiments import (
    CollectionMode,
    Fig4Config,
    Fig4Experiment,
    Fig5Config,
    Fig5Experiment,
    Fig6Config,
    Fig6Experiment,
    Fig8Config,
    Fig8Experiment,
)


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig4Config(
            sample_sizes=(50, 200, 1000),
            trials=12,
            mode=CollectionMode.SIMULATION,
            seed=11,
        )
        return Fig4Experiment(config).run()

    def test_piat_distributions_match_figure_4a(self, result):
        """Same mean, wider under the high rate, approximately normal."""
        low, high = result.piat_stats["low"], result.piat_stats["high"]
        assert low["mean"] == pytest.approx(high["mean"], rel=1e-3)
        assert high["std"] > low["std"]
        assert low["looks_normal"] and high["looks_normal"]
        assert result.r_measured == pytest.approx(result.r_model, rel=0.3)

    def test_detection_curves_match_figure_4b(self, result):
        """Mean stays near 50%; variance/entropy rise to ~100% by n=1000."""
        for feature in ("variance", "entropy"):
            rates = result.empirical_detection_rate[feature]
            assert rates[1000] > 0.9
            assert rates[1000] >= rates[50] - 0.05
        assert result.empirical_detection_rate["mean"][1000] < 0.75

    def test_empirical_tracks_theory(self, result):
        for feature in ("variance", "entropy"):
            for n in (200, 1000):
                empirical = result.empirical_detection_rate[feature][n]
                theory = result.theoretical_detection_rate[feature][n]
                assert empirical == pytest.approx(theory, abs=0.25)

    def test_report_renders(self, result):
        text = result.to_text()
        assert "Figure 4" in text
        assert "variance ratio" in text
        rows = list(result.rows())
        assert len(rows) == 3 * 3  # features x sample sizes

    def test_paper_shape_simulation(self):
        """Both Figure 4 panels from full simulated captures: the mean stays
        near the 50 % floor, variance and entropy reach ~100 % by n = 1000."""
        config = Fig4Config(
            sample_sizes=(10, 50, 100, 200, 500, 1000, 2000),
            trials=20,
            mode=CollectionMode.SIMULATION,
            seed=2003,
        )
        result = Fig4Experiment(config).run()
        assert result.empirical_detection_rate["variance"][1000] > 0.9
        assert result.empirical_detection_rate["entropy"][1000] > 0.9
        assert result.empirical_detection_rate["mean"][2000] < 0.75
        assert result.r_model > 1.3

    def test_paper_shape_analytic(self):
        """The same experiment on the Gaussian-model (ANALYTIC) path."""
        config = Fig4Config(
            sample_sizes=(10, 100, 1000),
            trials=30,
            mode=CollectionMode.ANALYTIC,
            seed=2003,
        )
        result = Fig4Experiment(config).run()
        assert result.empirical_detection_rate["variance"][1000] > 0.9

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig4Config(sample_sizes=())
        with pytest.raises(ConfigurationError):
            Fig4Config(sample_sizes=(1,))
        with pytest.raises(ConfigurationError):
            Fig4Config(trials=1)


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig5Config(
            sigma_t_values=(0.0, 1e-3),
            sample_size=500,
            trials=10,
            mode=CollectionMode.ANALYTIC,
            seed=11,
        )
        return Fig5Experiment(config).run()

    def test_vit_collapses_detection(self, result):
        """Figure 5(a): detection drops toward 50% as sigma_T grows."""
        for feature in ("variance", "entropy"):
            rates = result.empirical_detection_rate[feature]
            assert rates[0.0] > 0.85
            assert rates[1e-3] < 0.7
        assert result.variance_ratios[1e-3] < result.variance_ratios[0.0]

    def test_required_sample_explodes(self, result):
        """Figure 5(b): the attack needs astronomically many packets under VIT."""
        required = result.required_sample_for_target["variance"]
        assert required[1e-3] > 1e8
        assert required[1e-6] < 1e5

    def test_report_renders(self, result):
        text = result.to_text()
        assert "Figure 5(a)" in text and "Figure 5(b)" in text

    def test_paper_shape(self):
        """The paper preset (``repro run fig5 --preset paper --set trials=15``):
        the CIT point is detectable, the largest sigma_T is not, and the
        sample size 99 % detection needs grows without practical bound."""
        result = get_experiment(
            "fig5", preset="paper", seed=2003, overrides={"trials": 15}
        ).run()
        # Thresholds allow for the sampling noise of a 15-trial empirical point.
        assert result.empirical_detection_rate["variance"][0.0] > 0.9
        assert result.empirical_detection_rate["entropy"][0.0] > 0.75
        for feature in ("variance", "entropy"):
            assert result.empirical_detection_rate[feature][1e-3] < 0.65
        assert result.required_sample_for_target["variance"][1e-3] > 1e8
        assert result.required_sample_for_target["entropy"][1e-2] > 1e12

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig5Config(sigma_t_values=())
        with pytest.raises(ConfigurationError):
            Fig5Config(sigma_t_values=(-1e-3,))
        with pytest.raises(ConfigurationError):
            Fig5Config(target_detection_rate=0.4)
        with pytest.raises(ConfigurationError):
            Fig5Config(features=())

    def test_scenario_for_sigma(self):
        config = Fig5Config()
        assert config.scenario_for(0.0).policy.kind == "CIT"
        assert config.scenario_for(1e-3).policy.kind == "VIT"

    def test_fine_grained_sigma_values_do_not_collide(self):
        """Regression: grid keys carry the exact sigma_T, not the 3-sig-digit
        policy display name, so near-identical spreads stay distinct."""
        config = Fig5Config(
            sigma_t_values=(1e-3, 1.0004e-3),
            sample_size=100,
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=11,
        )
        cells = Fig5Experiment(config).cells()
        assert len({cell.key for cell in cells}) == 2
        result = Fig5Experiment(config).run()
        assert set(result.variance_ratios) == {1e-3, 1.0004e-3}

    def test_extension_features_run_without_fake_theory(self):
        """mad/iqr are measured empirically but get NaN in the theorem column."""
        import math

        config = Fig5Config(
            sigma_t_values=(0.0,),
            sample_size=100,
            trials=4,
            features=("variance", "mad"),
            mode=CollectionMode.ANALYTIC,
            seed=11,
        )
        result = Fig5Experiment(config).run()
        assert 0.0 <= result.empirical_detection_rate["mad"][0.0] <= 1.0
        assert math.isnan(result.theoretical_detection_rate["mad"][0.0])
        assert not math.isnan(result.theoretical_detection_rate["variance"][0.0])


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig6Config(
            utilizations=(0.05, 0.4),
            sample_size=300,
            trials=8,
            mode=CollectionMode.SIMULATION,
            seed=11,
        )
        return Fig6Experiment(config).run()

    def test_detection_decreases_with_utilization(self, result):
        for feature in ("variance", "entropy"):
            rates = result.empirical_detection_rate[feature]
            assert rates[0.05] > rates[0.4] - 0.1
            assert rates[0.05] > 0.7
        assert result.variance_ratios[0.4] < result.variance_ratios[0.05]

    def test_mean_feature_stays_uninformative(self, result):
        assert all(rate < 0.75 for rate in result.empirical_detection_rate["mean"].values())

    def test_integer_utilizations_are_accepted(self):
        """Regression: int axis values must key the same cells assemble reads."""
        config = Fig6Config(
            utilizations=(0, 0.3),
            sample_size=100,
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=11,
        )
        result = Fig6Experiment(config).run()
        assert set(result.empirical_detection_rate["variance"]) == {0, 0.3}

    def test_report_renders(self, result):
        assert "Figure 6" in result.to_text()

    def test_paper_shape_simulation(self):
        """Simulated captures at three representative utilizations: the
        variance ratio falls with load, and both features detect at u = 0.05."""
        config = Fig6Config(
            utilizations=(0.05, 0.2, 0.4),
            sample_size=500,
            trials=8,
            mode=CollectionMode.SIMULATION,
            seed=2003,
        )
        result = Fig6Experiment(config).run()
        assert result.variance_ratios[0.4] < result.variance_ratios[0.05]
        for feature in ("variance", "entropy"):
            assert result.empirical_detection_rate[feature][0.05] > 0.75

    def test_paper_shape_hybrid_full_sweep(self):
        """The figure's whole utilization axis under HYBRID: detection falls with
        load, and the mean stays near the 50 % floor throughout."""
        config = Fig6Config(
            utilizations=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
            sample_size=1000,
            trials=20,
            mode=CollectionMode.HYBRID,
            seed=2003,
        )
        result = Fig6Experiment(config).run()
        for feature in ("variance", "entropy"):
            rates = result.empirical_detection_rate[feature]
            assert rates[0.05] > 0.9
            assert rates[0.5] < rates[0.05]
        assert all(rate < 0.75 for rate in result.empirical_detection_rate["mean"].values())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig6Config(utilizations=())
        with pytest.raises(ConfigurationError):
            Fig6Config(utilizations=(1.2,))
        with pytest.raises(ConfigurationError):
            Fig6Config(scenario=Fig6Config().scenario.with_cross_utilization(0.0), utilizations=(0.1,), sample_size=1)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig8Config(
            networks=("campus", "wan"),
            hours=(2, 14),
            sample_size=400,
            trials=30,
            mode=CollectionMode.HYBRID,
            seed=11,
        )
        return Fig8Experiment(config).run()

    def test_campus_detection_exceeds_wan(self, result):
        """Figure 8: the campus path leaves the attack far more effective."""
        for feature in ("variance", "entropy"):
            campus = result.empirical_detection_rate["campus"][feature]
            wan = result.empirical_detection_rate["wan"][feature]
            assert campus[14] >= wan[14] - 0.05
            assert campus[2] > 0.75
        # 10 trials/class gives the empirical rate a granularity of 0.05;
        # require the top of the range without demanding a perfect 19/20.
        assert result.empirical_detection_rate["campus"]["variance"][2] >= 0.9

    def test_night_beats_midday(self, result):
        """Detection peaks in the quiet small hours (the paper's 2:00 AM remark)."""
        for network in ("campus", "wan"):
            gap = result.nightly_minus_midday(network, "variance")
            assert gap >= -0.05
        assert result.nightly_minus_midday("wan", "variance") > 0.1

    def test_utilizations_follow_diurnal_profile(self, result):
        for network in ("campus", "wan"):
            utils = result.utilizations[network]
            assert utils[2] < utils[14]

    def test_report_renders(self, result):
        assert "Figure 8" in result.to_text()

    def test_paper_shape_day(self):
        """Every other hour of the day on both paths: the campus stays effective
        all day, and the WAN still detects at night and dips at midday."""
        config = Fig8Config(
            networks=("campus", "wan"),
            hours=tuple(range(0, 24, 2)),
            sample_size=1000,
            trials=20,
            mode=CollectionMode.HYBRID,
            seed=2003,
        )
        result = Fig8Experiment(config).run()
        campus_variance = result.empirical_detection_rate["campus"]["variance"]
        assert min(campus_variance.values()) > 0.6
        wan_variance = result.empirical_detection_rate["wan"]["variance"]
        assert wan_variance[2] > 0.65
        assert result.nightly_minus_midday("wan", "variance") > 0.05

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig8Config(networks=())
        with pytest.raises(ConfigurationError):
            Fig8Config(networks=("metro",))
        with pytest.raises(ConfigurationError):
            Fig8Config(hours=(25,))
        with pytest.raises(ConfigurationError):
            Fig8Config(hourly_multipliers=(1.0,) * 23)

    def test_diurnal_multipliers_keep_their_values(self):
        """Fig8 fingerprints include the profile: its values may not drift."""
        assert DIURNAL_MULTIPLIERS == (
            0.25, 0.18, 0.15, 0.16, 0.20, 0.30,
            0.45, 0.65, 0.85, 1.00, 1.10, 1.15,
            1.10, 1.15, 1.20, 1.15, 1.05, 0.95,
            0.85, 0.75, 0.65, 0.55, 0.42, 0.32,
        )
        assert Fig8Config().hourly_multipliers is DIURNAL_MULTIPLIERS

    def test_diurnal_profile_dips_at_night_and_peaks_in_the_afternoon(self):
        hourly = list(DIURNAL_MULTIPLIERS)
        assert 0 <= hourly.index(min(hourly)) <= 5
        assert 12 <= hourly.index(max(hourly)) <= 17

    @pytest.mark.parametrize(
        "multipliers",
        [(1.0,) * 23 + (-0.5,), (0.0,) * 24, (1.0,) * 23 + (float("nan"),)],
        ids=["negative", "all-zero", "nan"],
    )
    def test_degenerate_multipliers_rejected(self, multipliers):
        """Regression: these gave NaN utilizations, or ones below the padded stream's own."""
        with pytest.raises(ConfigurationError, match="hourly_multipliers"):
            Fig8Config(hourly_multipliers=multipliers)

    @pytest.mark.parametrize("network", ["campus", "wan"])
    def test_peak_hour_reaches_the_topology_peak_utilization(self, network):
        config = Fig8Config()
        peak_hour = DIURNAL_MULTIPLIERS.index(max(DIURNAL_MULTIPLIERS))
        peak = config.topology(network).diurnal_peak_utilization
        assert config.utilization_at(network, peak_hour) == pytest.approx(peak)
        assert all(config.utilization_at(network, hour) <= peak + 1e-12 for hour in range(24))

    def test_utilization_at_hour_helper(self):
        config = Fig8Config()
        assert config.utilization_at("wan", 14) > config.utilization_at("wan", 2)
        assert config.utilization_at("wan", 14) <= 0.99

    def test_hybrid_cells_share_one_gateway_capture_per_network(self):
        config = Fig8Config(
            hours=(2, 8, 14), sample_size=100, trials=4, mode=CollectionMode.HYBRID, seed=11
        )
        cells = Fig8Experiment(config).cells()
        assert all(cell.capture is not None for cell in cells)
        fingerprints = {cell.capture.fingerprint() for cell in cells}
        assert len(fingerprints) == 2  # one per network, shared across hours

    def test_analytic_cells_stay_fully_independent(self):
        config = Fig8Config(
            hours=(2, 14), sample_size=100, trials=4, mode=CollectionMode.ANALYTIC, seed=11
        )
        cells = Fig8Experiment(config).cells()
        assert all(cell.capture is None for cell in cells)
        assert len({cell.seed_offsets for cell in cells}) == len(cells)


class TestMultiSeedExperiments:
    """Experiments run over several seeds aggregate to mean ± CI per point."""

    @pytest.fixture(scope="class")
    def results(self):
        config = Fig6Config(
            utilizations=(0.05, 0.4),
            sample_size=150,
            trials=6,
            mode=CollectionMode.ANALYTIC,
            seed=11,
        )
        experiment = Fig6Experiment(config)
        single = experiment.run()
        multi = experiment.run(seeds=(11, 12, 13), confidence=0.95)
        return single, multi

    def test_multi_seed_mean_is_the_seed_average(self, results):
        _, multi = results
        assert multi.n_seeds == 3
        for feature, by_util in multi.empirical_detection_rate.items():
            for rate in by_util.values():
                assert 0.0 <= rate <= 1.0

    def test_ci_brackets_the_mean(self, results):
        _, multi = results
        assert multi.empirical_ci is not None
        assert multi.confidence == 0.95
        for feature, by_util in multi.empirical_ci.items():
            for utilization, (lower, upper) in by_util.items():
                mean = multi.empirical_detection_rate[feature][utilization]
                assert lower <= mean <= upper

    def test_first_seed_matches_the_single_seed_run(self, results):
        single, multi = results
        assert single.n_seeds == 1 and single.empirical_ci is None
        # The multi-seed grid's first seed is the config seed, so its mean
        # moved but stays within the CI ranges around plausible values.
        assert set(single.empirical_detection_rate) == set(multi.empirical_detection_rate)

    def test_multi_seed_report_renders_ci_column(self, results):
        _, multi = results
        text = multi.to_text()
        assert "mean of 3 seeds" in text
        assert "ci95%" in text
        assert "[" in text

    def test_single_seed_report_is_unchanged(self, results):
        single, _ = results
        text = single.to_text()
        assert "mean of" not in text
        assert "ci95%" not in text
