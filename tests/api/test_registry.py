"""Registry contract tests: every registered experiment obeys the protocol."""

from __future__ import annotations

import pytest

from dataclasses import is_dataclass

from repro.api import (
    PRESETS,
    Experiment,
    apply_overrides,
    describe_experiment,
    get_experiment,
    list_experiments,
    parse_set_options,
    run_experiment,
)
from repro.api.registry import _EXPERIMENTS
from repro.exceptions import ConfigurationError
from repro.experiments import CollectionMode, Fig4Config, Fig4Experiment
from repro.runner import CellResult, SweepCell, experiment_view

ALL_EXPERIMENTS = list_experiments()

EXPECTED_NAMES = {
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "ablation_estimators",
    "ablation_tap",
    "ablation_vit",
    "population",
}


def synthetic_report(cells):
    """A fake sweep report: plausible numbers shaped by each cell's config."""
    report = {}
    for cell in cells:
        rates = {
            feature: {n: 0.75 for n in cell.sample_sizes} for feature in cell.features
        }
        piat = {
            label: {
                "mean": 0.01,
                "std": 1e-3,
                "qq_rms_deviation": 0.05,
                "looks_normal": True,
            }
            for label in ("low", "high")
        }
        report[cell.key] = CellResult(
            key=cell.key,
            fingerprint=cell.fingerprint(),
            empirical_detection_rate=rates,
            measured_variance_ratio=1.2,
            measured_means={"low": 0.01, "high": 0.01},
            piat_stats=piat if cell.collect_piat_stats else {},
        )
    return report


class TestRegistryContents:
    def test_figures_and_ablations_are_registered(self):
        assert EXPECTED_NAMES <= set(ALL_EXPERIMENTS)

    def test_listing_is_sorted_and_unique(self):
        assert ALL_EXPERIMENTS == sorted(ALL_EXPERIMENTS)
        assert len(set(ALL_EXPERIMENTS)) == len(ALL_EXPERIMENTS)

    def test_unknown_name_error_lists_the_known_names(self):
        with pytest.raises(ConfigurationError, match="fig6"):
            get_experiment("fig9")

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ConfigurationError, match="preset"):
            get_experiment("fig6", preset="warp")

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_every_class_carries_a_config_class_and_every_preset(self, name):
        cls = _EXPERIMENTS[name]
        assert is_dataclass(cls.config_cls)
        assert sorted(cls.presets) == sorted(PRESETS)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_a_preset_is_the_config_built_from_its_row(self, preset):
        experiment = get_experiment("fig4", preset=preset, seed=7)
        assert isinstance(experiment, Fig4Experiment)
        assert experiment.config == Fig4Config(**Fig4Experiment.presets[preset], seed=7)

    def test_descriptions_are_one_liners(self):
        for name in ALL_EXPERIMENTS:
            summary = describe_experiment(name)
            assert summary and "\n" not in summary


class TestExperimentContract:
    """The formal protocol, checked for every registered experiment."""

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_satisfies_the_protocol(self, name):
        experiment = get_experiment(name, preset="smoke")
        assert isinstance(experiment, Experiment)
        assert experiment.name == name
        assert experiment.describe()

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_preset_builds_cells(self, name, preset):
        cells = get_experiment(name, preset=preset).cells()
        assert cells and all(isinstance(cell, SweepCell) for cell in cells)

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_cell_keys_carry_the_experiment_name(self, name):
        for cell in get_experiment(name, preset="smoke").cells():
            assert cell.key == name or cell.key.startswith(f"{name}/")

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_cells_are_fingerprint_stable_across_two_builds(self, name):
        first = get_experiment(name, preset="smoke").cells()
        second = get_experiment(name, preset="smoke").cells()
        assert [cell.key for cell in first] == [cell.key for cell in second]
        assert [cell.fingerprint() for cell in first] == [
            cell.fingerprint() for cell in second
        ]

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_assemble_round_trips_a_synthetic_report(self, name):
        experiment = get_experiment(name, preset="smoke")
        cells = experiment.cells()
        result = experiment.assemble(experiment_view(synthetic_report(cells), cells))
        text = result.to_text()
        assert text.strip()
        assert "0.75" in text

    @pytest.mark.parametrize("name", ALL_EXPERIMENTS)
    def test_assemble_aggregates_a_multi_seed_synthetic_report(self, name):
        experiment = get_experiment(name, preset="smoke")
        seeds = (11, 12)
        cells = experiment.cells(seeds)
        assert len(cells) == 2 * len(experiment.cells())
        result = experiment.assemble(experiment_view(synthetic_report(cells), cells, 0.9))
        assert "mean of 2 seeds" in result.to_text()


class TestOverrides:
    def test_override_replaces_a_config_field(self):
        experiment = get_experiment("fig6", preset="smoke", overrides={"trials": 9})
        assert experiment.config.trials == 9

    def test_string_overrides_are_coerced_by_field_type(self):
        experiment = get_experiment(
            "fig6",
            preset="smoke",
            overrides={
                "trials": "9",
                "utilizations": "0.1,0.3",
                "mode": "analytic",
            },
        )
        assert experiment.config.trials == 9
        assert experiment.config.utilizations == (0.1, 0.3)
        assert experiment.config.mode is CollectionMode.ANALYTIC

    def test_mixed_type_tuple_overrides_keep_rules_and_numbers(self):
        # kde_bandwidths holds rule names *and* float multipliers; a --set
        # string must be able to express both.
        experiment = get_experiment(
            "ablation_estimators",
            preset="smoke",
            overrides={"kde_bandwidths": "silverman,0.5,2.0"},
        )
        assert experiment.config.kde_bandwidths == ("silverman", 0.5, 2.0)

    def test_unknown_field_names_the_valid_ones(self):
        with pytest.raises(ConfigurationError, match="utilizations"):
            get_experiment("fig6", preset="smoke", overrides={"utilisation": 0.2})

    def test_bad_value_fails_with_the_config_error(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig6", preset="smoke", overrides={"trials": "many"})

    def test_invalid_configurations_still_fail_loudly(self):
        # Overrides feed dataclasses.replace, so __post_init__ re-validates.
        with pytest.raises(ConfigurationError, match="trials"):
            get_experiment("fig6", preset="smoke", overrides={"trials": 1})

    def test_apply_overrides_requires_a_dataclass(self):
        with pytest.raises(ConfigurationError):
            apply_overrides(object(), {"trials": 2})

    def test_parse_set_options(self):
        assert parse_set_options(["a=1", "b=x=y"]) == {"a": "1", "b": "x=y"}
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_set_options(["oops"])
        with pytest.raises(ConfigurationError, match="twice"):
            parse_set_options(["a=1", "a=2"])


class TestRunExperiment:
    def test_wraps_result_with_provenance(self):
        experiment = get_experiment("fig6", preset="smoke", overrides={"trials": 4})
        outcome = run_experiment(
            experiment, preset="smoke", overrides={"trials": 4}
        )
        assert outcome.name == "fig6"
        assert outcome.to_text() == outcome.result.to_text()
        assert set(outcome.fingerprints) == {cell.key for cell in experiment.cells()}
        assert set(outcome.cell_results) == set(outcome.fingerprints)
        provenance = outcome.provenance()
        assert provenance["preset"] == "smoke"
        assert provenance["overrides"] == {"trials": 4}
        assert provenance["seeds"] == [experiment.config.seed]
