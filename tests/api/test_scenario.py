"""Declarative scenarios: dict/TOML loading, round-trips, end-to-end runs."""

from __future__ import annotations

import pytest

from repro.api import (
    TOML_AVAILABLE,
    Experiment,
    ScenarioExperiment,
    ScenarioPoint,
    ScenarioSpec,
    parse_policy,
    run_experiment,
)
from repro.exceptions import ConfigurationError
from repro.runner import ResultsStore, SweepRunner, experiment_view

needs_toml = pytest.mark.skipif(not TOML_AVAILABLE, reason="no TOML parser available")

#: A scenario file a user could write with no Python: a CIT stream crossing a
#: loaded multi-hop path, swept over utilization × hops.
WAN_TOML = """\
name = "test_wan"
title = "CIT across a loaded WAN path"
description = "Declared in TOML; runs through the sweep runner unchanged."

[base]
policy = "cit"
link_rate_bps = 80e6

[grid]
hops = [1, 5]
utilizations = [0.1, 0.3]

[run]
mode = "analytic"
sample_sizes = [200]
trials = 4
seed = 99
"""


def wan_spec_dict():
    return {
        "name": "test_wan",
        "title": "CIT across a loaded WAN path",
        "description": "Declared in TOML; runs through the sweep runner unchanged.",
        "base": {"policy": "cit", "link_rate_bps": 80e6},
        "grid": {"hops": [1, 5], "utilizations": [0.1, 0.3]},
        "run": {"mode": "analytic", "sample_sizes": [200], "trials": 4, "seed": 99},
    }


class TestParsePolicy:
    def test_string_forms(self):
        assert parse_policy("cit").kind == "CIT"
        assert parse_policy("cit:0.02").mean_interval == 0.02
        vit = parse_policy("vit:1e-4")
        assert vit.kind == "VIT" and vit.sigma_t == 1e-4
        vit = parse_policy("vit:1e-4:0.02")
        assert vit.sigma_t == 1e-4 and vit.mean_interval == 0.02

    def test_table_forms(self):
        cit = parse_policy({"kind": "CIT", "mean_interval": 0.02})
        assert cit.kind == "CIT" and cit.mean_interval == 0.02
        vit = parse_policy({"kind": "vit", "sigma_t": 1e-3, "family": "uniform"})
        assert vit.family == "uniform"

    @pytest.mark.parametrize(
        "bad",
        ["cat", "vit", "cit:fast", "vit:1e-4:0.02:normal:extra", 42],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ConfigurationError):
            parse_policy(bad)

    def test_rejects_unknown_table_keys_and_kinds(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            parse_policy({"kind": "CIT", "tau": 0.01})
        with pytest.raises(ConfigurationError, match="kind"):
            parse_policy({"mean_interval": 0.01})
        with pytest.raises(ConfigurationError, match="sigma_t"):
            parse_policy({"kind": "VIT"})


class TestScenarioSpec:
    def test_minimal_spec_is_one_base_point(self):
        spec = ScenarioSpec.from_dict({"name": "tiny"})
        cells = ScenarioExperiment(spec).cells()
        assert [cell.key for cell in cells] == ["tiny"]

    def test_axes_expand_to_the_grid_product(self):
        spec = ScenarioSpec.from_dict(wan_spec_dict())
        keys = [cell.key for cell in ScenarioExperiment(spec).cells()]
        assert len(keys) == 4
        assert "test_wan/hops=1/utilization=0.1" in keys
        assert "test_wan/hops=5/utilization=0.3" in keys

    def test_name_is_required_and_key_safe(self):
        with pytest.raises(ConfigurationError, match="name"):
            ScenarioSpec.from_dict({"title": "anonymous"})
        with pytest.raises(ConfigurationError, match="name"):
            ScenarioSpec.from_dict({"name": "bad/name"})

    @pytest.mark.parametrize(
        "mutation",
        [
            {"extra": 1},
            {"base": {"policy": "cit", "bandwidth": 1}},
            {"grid": {"speeds": [1]}},
            {"run": {"jobs": 4}},
        ],
    )
    def test_unknown_keys_fail_loudly(self, mutation):
        document = wan_spec_dict()
        for key, value in mutation.items():
            document[key] = value
        with pytest.raises(ConfigurationError, match="unknown"):
            ScenarioSpec.from_dict(document)

    def test_dict_round_trip_preserves_cells_and_fingerprints(self):
        spec = ScenarioSpec.from_dict(wan_spec_dict())
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        original = [(c.key, c.fingerprint()) for c in ScenarioExperiment(spec).cells()]
        round_tripped = [
            (c.key, c.fingerprint()) for c in ScenarioExperiment(rebuilt).cells()
        ]
        assert original == round_tripped

    def test_policy_axis_round_trip(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "families",
                "grid": {"policies": ["cit", "vit:1e-3", {"kind": "VIT", "sigma_t": 1e-4}]},
                "run": {"mode": "analytic", "sample_sizes": [100], "trials": 4},
            }
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert [c.fingerprint() for c in ScenarioExperiment(spec).cells()] == [
            c.fingerprint() for c in ScenarioExperiment(rebuilt).cells()
        ]


def points_spec_dict():
    """A scenario enumerating explicit [[points]] instead of a [grid]."""
    return {
        "name": "named_points",
        "title": "Curated defence configurations",
        "base": {"policy": "cit", "n_hops": 5, "cross_utilization": 0.2},
        "points": [
            {"key": "baseline"},
            {"key": "short-path", "n_hops": 1, "cross_utilization": 0.1},
            {"key": "vit", "policy": "vit:1e-4"},
        ],
        "run": {"mode": "analytic", "sample_sizes": [200], "trials": 4, "seed": 7},
    }


POINTS_TOML = """\
name = "named_points"
title = "Curated defence configurations"

[base]
policy = "cit"
n_hops = 5
cross_utilization = 0.2

[[points]]
key = "baseline"

[[points]]
key = "short-path"
n_hops = 1
cross_utilization = 0.1

[[points]]
key = "vit"
policy = "vit:1e-4"

[run]
mode = "analytic"
sample_sizes = [200]
trials = 4
seed = 7
"""


class TestScenarioPoints:
    def test_points_compile_to_explicit_grid_points(self):
        spec = ScenarioSpec.from_dict(points_spec_dict())
        cells = ScenarioExperiment(spec).cells()
        assert [cell.key for cell in cells] == [
            "named_points/baseline",
            "named_points/short-path",
            "named_points/vit",
        ]
        by_key = {cell.key: cell.scenario for cell in cells}
        assert by_key["named_points/baseline"].n_hops == 5
        assert by_key["named_points/short-path"].n_hops == 1
        assert by_key["named_points/short-path"].cross_utilization == 0.1
        assert by_key["named_points/vit"].policy.kind == "VIT"
        # Un-overridden fields come from [base].
        assert by_key["named_points/vit"].n_hops == 5

    def test_dict_round_trip_preserves_cells_and_fingerprints(self):
        spec = ScenarioSpec.from_dict(points_spec_dict())
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert [
            (c.key, c.fingerprint()) for c in ScenarioExperiment(spec).cells()
        ] == [(c.key, c.fingerprint()) for c in ScenarioExperiment(rebuilt).cells()]

    def test_override_order_is_canonical(self):
        a = ScenarioPoint(key="p", overrides={"n_hops": 1, "cross_utilization": 0.1})
        b = ScenarioPoint(key="p", overrides={"cross_utilization": 0.1, "n_hops": 1})
        assert a == b

    def test_points_and_grid_are_mutually_exclusive(self):
        document = points_spec_dict()
        document["grid"] = {"hops": [1, 5]}
        with pytest.raises(ConfigurationError, match="not both"):
            ScenarioSpec.from_dict(document)

    def test_duplicate_point_keys_rejected(self):
        document = points_spec_dict()
        document["points"] = [{"key": "same"}, {"key": "same", "n_hops": 1}]
        with pytest.raises(ConfigurationError, match="unique"):
            ScenarioSpec.from_dict(document)

    def test_unknown_override_field_rejected(self):
        document = points_spec_dict()
        document["points"] = [{"key": "p", "bandwidth": 1}]
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ScenarioSpec.from_dict(document)

    def test_key_is_required_and_key_safe(self):
        document = points_spec_dict()
        document["points"] = [{"n_hops": 1}]
        with pytest.raises(ConfigurationError, match="key"):
            ScenarioSpec.from_dict(document)
        document["points"] = [{"key": "bad/key"}]
        with pytest.raises(ConfigurationError, match="key"):
            ScenarioSpec.from_dict(document)

    def test_empty_points_rejected(self):
        document = points_spec_dict()
        document["points"] = []
        with pytest.raises(ConfigurationError, match="at least one"):
            ScenarioSpec.from_dict(document)

    @needs_toml
    def test_toml_points_match_the_dict_form(self, tmp_path):
        path = tmp_path / "points.toml"
        path.write_text(POINTS_TOML)
        from_file = ScenarioSpec.from_toml(path)
        from_dict = ScenarioSpec.from_dict(points_spec_dict())
        assert [
            (c.key, c.fingerprint()) for c in ScenarioExperiment(from_file).cells()
        ] == [(c.key, c.fingerprint()) for c in ScenarioExperiment(from_dict).cells()]

    def test_runs_end_to_end(self):
        spec = ScenarioSpec.from_dict(points_spec_dict())
        outcome = run_experiment(ScenarioExperiment(spec))
        text = outcome.to_text()
        assert "baseline" in text and "short-path" in text and "vit" in text


class TestTomlLoading:
    pytestmark = needs_toml

    @pytest.fixture
    def toml_path(self, tmp_path):
        path = tmp_path / "wan.toml"
        path.write_text(WAN_TOML)
        return path

    def test_toml_matches_the_dict_form(self, toml_path):
        from_file = ScenarioSpec.from_toml(toml_path)
        from_dict = ScenarioSpec.from_dict(wan_spec_dict())
        assert [
            (c.key, c.fingerprint()) for c in ScenarioExperiment(from_file).cells()
        ] == [(c.key, c.fingerprint()) for c in ScenarioExperiment(from_dict).cells()]

    def test_missing_file_fails_loudly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ScenarioSpec.from_toml(tmp_path / "nope.toml")

    def test_invalid_toml_fails_loudly(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        with pytest.raises(ConfigurationError, match="not valid TOML"):
            ScenarioSpec.from_toml(path)

    def test_committed_example_scenarios_parse(self):
        """Every gallery file under examples/scenarios/ loads and expands."""
        from pathlib import Path

        gallery = (
            Path(__file__).resolve().parent.parent.parent / "examples" / "scenarios"
        )
        files = sorted(gallery.glob("*.toml"))
        assert len(files) >= 3  # wan_smoke + the PR 10 additions
        names = set()
        for example in files:
            spec = ScenarioSpec.from_toml(example)
            assert ScenarioExperiment(spec).cells()
            names.add(spec.name)
        assert "population_smoke" in names  # the population gallery entry


class TestScenarioExperiment:
    def test_satisfies_the_experiment_protocol(self):
        experiment = ScenarioExperiment(ScenarioSpec.from_dict(wan_spec_dict()))
        assert isinstance(experiment, Experiment)
        assert experiment.name == "test_wan"
        assert "WAN" in experiment.describe()

    def test_runs_end_to_end_through_the_sweep_runner(self, tmp_path):
        """The acceptance bar: a new scenario, no Python, cold then warm."""
        spec = ScenarioSpec.from_dict(wan_spec_dict())
        experiment = ScenarioExperiment(spec)

        store = ResultsStore(tmp_path)
        cold = run_experiment(experiment, runner=SweepRunner(jobs=2, store=store))
        assert cold.report.misses == 4 and cold.report.hits == 0

        warm = run_experiment(experiment, runner=SweepRunner(store=store))
        assert warm.report.misses == 0 and warm.report.hits == 4
        assert warm.to_text() == cold.to_text()

        text = cold.to_text()
        assert "CIT across a loaded WAN path" in text
        assert "hops=5/utilization=0.3" in text
        assert "theorem" in text

    def test_multi_seed_aggregation(self):
        spec = ScenarioSpec.from_dict(wan_spec_dict())
        outcome = run_experiment(
            ScenarioExperiment(spec), seeds=(99, 100, 101), confidence=0.9
        )
        text = outcome.to_text()
        assert "mean of 3 seeds" in text
        assert "ci90%" in text

    def test_assemble_reads_only_its_own_cells(self):
        """A pooled report with foreign cells assembles the scenario cleanly."""
        spec = ScenarioSpec.from_dict(wan_spec_dict())
        experiment = ScenarioExperiment(spec)
        cells = experiment.cells()
        report = SweepRunner().run(cells)
        report.results["foreign/cell"] = next(iter(report.results.values()))
        result = experiment.assemble(experiment_view(report, cells))
        assert "foreign" not in result.to_text()
