"""End-to-end tests for the registered population experiment."""

from __future__ import annotations

import pytest

from repro.api import Experiment, get_experiment, list_experiments, run_experiment
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode
from repro.population import PopulationConfig, PopulationExperiment
from repro.runner import SweepRunner


def smoke_config(**overrides):
    settings = dict(
        n_as=5,
        sample_sizes=(50, 100),
        trials=4,
        mode=CollectionMode.ANALYTIC,
        mix_depth_points=2,
    )
    settings.update(overrides)
    return PopulationConfig(**settings)


class TestPopulationConfig:
    def test_defaults_are_valid(self):
        config = PopulationConfig()
        assert config.n_flows == 600
        assert config.graph_spec().n_as == config.n_as

    def test_rejects_simulation_mode(self):
        with pytest.raises(ConfigurationError, match="analytic"):
            smoke_config(mode=CollectionMode.SIMULATION)

    def test_rejects_thin_or_unsorted_rate_mixes(self):
        with pytest.raises(ConfigurationError, match="three"):
            smoke_config(rate_classes=(2.0, 10.0), rate_weights=(0.5, 0.5))
        with pytest.raises(ConfigurationError, match="sorted"):
            smoke_config(rate_classes=(10.0, 5.0, 2.0))
        with pytest.raises(ConfigurationError, match="match"):
            smoke_config(rate_weights=(0.5, 0.5))

    def test_graph_spec_failures_surface_at_config_time(self):
        with pytest.raises(ConfigurationError, match="n_as"):
            smoke_config(n_as=2)


class TestPopulationExperiment:
    def test_satisfies_the_experiment_protocol(self):
        experiment = PopulationExperiment(smoke_config())
        assert isinstance(experiment, Experiment)
        assert experiment.name == "population"
        assert "anonymity" in experiment.describe()

    def test_structure_is_fixed_across_sweep_seeds(self):
        """Sweep seeds vary capture noise only: the grid points are shared."""
        experiment = PopulationExperiment(smoke_config())
        a = [c.key for c in experiment.cells(seeds=(2003,))]
        b = [c.key for c in experiment.cells(seeds=(2004,))]
        assert a == b

    def test_population_holds_every_flow(self):
        experiment = PopulationExperiment(smoke_config())
        assert len(experiment.population().flows) == 600

    def test_runs_end_to_end_with_confusion_and_anonymity_sections(self):
        experiment = PopulationExperiment(smoke_config())
        result = run_experiment(experiment)
        text = result.to_text()
        assert "Population-scale anonymity (600 flows" in text
        assert "Per-AS detection rate" in text
        assert "Anonymity sets" in text
        assert "Fraction of population identified" in text
        assert "Multi-rate mix detection (3 classes" in text
        assert "Confusion matrix — variance feature" in text
        # Confusion rows are ordered numerically: 2 before 10.
        assert "true \\ predicted" in text

    def test_serial_and_process_backends_agree_byte_for_byte(self):
        experiment = PopulationExperiment(smoke_config())
        serial = run_experiment(experiment, runner=SweepRunner(jobs=1))
        process = run_experiment(
            PopulationExperiment(smoke_config()),
            runner=SweepRunner(jobs=2, backend="process"),
        )
        assert serial.to_text() == process.to_text()

    def test_multi_seed_ci_bands(self):
        experiment = PopulationExperiment(smoke_config(trials=4))
        outcome = run_experiment(experiment, seeds=(2003, 2004), confidence=0.9)
        text = outcome.to_text()
        assert "mean of 2 seeds" in text
        assert "ci90%" in text


class TestRegistryIntegration:
    def test_population_is_registered(self):
        assert "population" in list_experiments()

    def test_presets_shrink_the_graph_not_the_population(self):
        for preset in ("paper", "fast", "quick", "smoke"):
            experiment = get_experiment("population", preset, 2003)
            assert experiment.config.n_flows == 600

    def test_smoke_preset_runs_through_the_registry(self):
        experiment = get_experiment("population", "smoke", 2003)
        result = run_experiment(experiment)
        assert "Population-scale anonymity" in result.to_text()

    def test_smoke_reports_alike_on_both_backends_through_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        base = ["run", "population", "--preset", "smoke"]
        serial, process = tmp_path / "serial.txt", tmp_path / "process.txt"
        assert main(base + ["--backend", "serial", "--output", str(serial)]) == 0
        assert main(base + ["--backend", "process", "--jobs", "2", "--output", str(process)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == process.read_bytes()
        assert "Confusion matrix" in serial.read_text()

    def test_set_overrides_apply(self):
        experiment = get_experiment(
            "population", "smoke", 2003, overrides={"trials": 6}
        )
        assert experiment.config.trials == 6
