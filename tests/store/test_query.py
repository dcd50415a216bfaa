"""Tests of the typed StoreQuery API against an indexed fixture store."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api import get_experiment
from repro.exceptions import ConfigurationError
from repro.runner import aggregate_cells
from repro.runner.cells import CellResult
from repro.runner.store import ResultsStore
from repro.store import StoreIndex, StoreQuery

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"


@pytest.fixture(scope="module")
def indexed_store(tmp_path_factory) -> Path:
    """One indexed copy of the fixture store, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("store") / "cache"
    shutil.copytree(FIXTURE_CACHE, root)
    StoreIndex(root).refresh()
    return root


@pytest.fixture(scope="module")
def query(indexed_store) -> StoreQuery:
    return StoreQuery(indexed_store)


class TestPoints:
    def test_missing_index_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="repro cache index"):
            StoreQuery(tmp_path)

    def test_points_match_the_jsonl_records_byte_for_byte(self, query, indexed_store):
        """The acceptance criterion: served values == stored values."""
        store = ResultsStore(indexed_store)
        points = query.points(experiment="fig6")
        assert len(points) == 2
        for point in points:
            record = store.get(point.fingerprint)
            assert record is not None
            assert point.result == record["result"]
            assert json.dumps(point.result, sort_keys=True) == json.dumps(
                record["result"], sort_keys=True
            )

    def test_fig6_point_keys_and_seeds(self, query):
        points = query.points(experiment="fig6")
        assert [(p.point_key, p.seed) for p in points] == [
            ("fig6/utilization=0.05", 2003),
            ("fig6/utilization=0.3", 2003),
        ]

    def test_preset_filter(self, query):
        assert len(query.points(experiment="fig6", preset="smoke")) == 2
        assert query.points(experiment="fig6", preset="paper") == []

    def test_policy_filter_is_case_insensitive(self, query):
        all_points = query.points()
        cit = query.points(policy="cit")  # stored as "CIT"
        assert 0 < len(cit) < len(all_points)
        assert all(p.policy_kind == "CIT" for p in cit)
        assert query.points(policy="CIT") == cit
        vit = query.points(policy="vit")
        assert len(cit) + len(vit) == len(all_points)

    def test_seed_filter(self, query):
        assert len(query.points(experiment="fig6", seed=2003)) == 2
        assert query.points(experiment="fig6", seed=1999) == []

    def test_unlabelled_experiment_returns_empty(self, query):
        assert query.points(experiment="no_such_experiment") == []

    def test_point_returns_the_per_seed_records(self, query):
        records = query.point("fig6/utilization=0.05")
        assert len(records) == 1
        assert records[0].experiment == "fig6"
        assert records[0].seed == 2003
        assert query.point("fig6/utilization=0.99") == []

    def test_experiments_summary(self, query):
        summary = {entry["experiment"]: entry for entry in query.experiments()}
        assert set(summary) == {"fig4", "fig5", "fig6", "fig8"}
        assert summary["fig6"]["points"] == 2
        assert summary["fig6"]["records"] == 2
        assert "smoke" in summary["fig6"]["presets"]


class TestCIBand:
    @pytest.fixture()
    def two_seed_store(self, tmp_path):
        """A store holding fig6 smoke cells at two seeds, with fake results.

        Results are synthetic (cheap) but structurally real; what matters is
        that the bands served from sqlite match :func:`aggregate_cells` on
        the identical values exactly.
        """
        root = tmp_path / "cache"
        store = ResultsStore(root)
        cells = get_experiment("fig6", "smoke", 2003).cells(seeds=(2003, 2004))
        report = {}
        for cell in cells:
            offset = cell.seed - 2003
            result = CellResult(
                key=cell.key,
                fingerprint=cell.fingerprint(),
                empirical_detection_rate={
                    feature: {n: 0.5 + 0.01 * offset for n in cell.sample_sizes}
                    for feature in cell.features
                },
                measured_variance_ratio=2.0 + offset,
            )
            store.put(cell.fingerprint(), cell.config_dict(), result.to_json_dict())
            report[cell.key] = result
        StoreIndex(root).refresh()
        return root, cells, report

    def test_band_matches_the_aggregation_layer_byte_for_byte(self, two_seed_store):
        root, cells, report = two_seed_store
        query = StoreQuery(root)
        aggregated = aggregate_cells(cells, report, confidence=0.9)
        for point_key, expected in aggregated.results.items():
            band = query.ci_band(point_key, confidence=0.9)
            assert band.seeds == expected.seeds
            assert band.variance_ratio[0] == expected.measured_variance_ratio
            assert band.variance_ratio[1:] == expected.variance_ratio_ci
            for feature, by_n in expected.empirical_detection_rate.items():
                for n, mean in by_n.items():
                    served = band.detection_rate[feature][n]
                    assert served[0] == mean
                    assert served[1:] == expected.detection_rate_ci[feature][n]

    def test_single_seed_point_is_rejected(self, indexed_store):
        query = StoreQuery(indexed_store)
        with pytest.raises(ConfigurationError, match="at least two"):
            query.ci_band("fig6/utilization=0.05", confidence=0.95)

    def test_confidence_is_validated(self, indexed_store):
        query = StoreQuery(indexed_store)
        with pytest.raises(ConfigurationError, match="confidence"):
            query.ci_band("fig6/utilization=0.05", confidence=1.5)
