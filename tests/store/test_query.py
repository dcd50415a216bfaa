"""Tests of the typed StoreQuery API against the fixture store."""

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
from repro.store import StoreQuery

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory) -> Path:
    """One copy of the fixture store, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("store") / "cache"
    shutil.copytree(FIXTURE_CACHE, root)
    return root


@pytest.fixture(scope="module")
def query(shared_store) -> StoreQuery:
    return StoreQuery(shared_store)


@pytest.fixture
def fixture_store(tmp_path) -> Path:
    """A throwaway copy of the fixture store, for tests that write to it."""
    root = tmp_path / "cache"
    shutil.copytree(FIXTURE_CACHE, root)
    return root


def fig6_fingerprints() -> list:
    return [cell.fingerprint() for cell in get_experiment("fig6", "smoke", 2003).cells()]


class TestPoints:
    def test_empty_store_serves_nothing(self, tmp_path):
        query = StoreQuery(tmp_path)
        assert query.points() == [] and query.experiments() == []

    def test_points_match_the_jsonl_records_byte_for_byte(self, query, shared_store):
        """The acceptance criterion: served values == stored values."""
        store = ResultsStore(shared_store)
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

    def test_labels_point_at_registered_experiments(self, query):
        counts = {
            name: len(query.points(experiment=name, preset="smoke"))
            for name in ("fig4", "fig5", "fig6", "fig8")
        }
        assert counts == {"fig4": 1, "fig5": 2, "fig6": 2, "fig8": 4}

    def test_experiments_summary(self, query):
        summary = {entry["experiment"]: entry for entry in query.experiments()}
        assert set(summary) == {"fig4", "fig5", "fig6", "fig8"}
        assert summary["fig6"]["points"] == 2
        assert summary["fig6"]["records"] == 2
        assert "smoke" in summary["fig6"]["presets"]


class TestNewSeeds:
    def test_each_shard_is_read_for_its_seed_once(self, fixture_store, monkeypatch):
        reads = []
        original = ResultsStore.shard_winner.__func__

        def counting(cls, path):
            reads.append(path.stem)
            return original(cls, path)

        monkeypatch.setattr(ResultsStore, "shard_winner", classmethod(counting))
        query = StoreQuery(fixture_store)
        shards = len(ResultsStore(fixture_store).shard_files())
        assert len(reads) == len(set(reads)) == shards
        reads.clear()
        query.points(experiment="nope")  # lists the shards, looks nothing up
        assert reads == []


class TestShardPrecedence:
    """Queries resolve every shard through the store's own parsing contract."""

    def test_last_shard_record_wins(self, fixture_store):
        query = StoreQuery(fixture_store)
        store = ResultsStore(fixture_store)
        fingerprint = fig6_fingerprints()[0]
        record = store.get(fingerprint)
        store.put(
            fingerprint,
            record["config"],
            dict(record["result"], measured_variance_ratio=99.0),
        )
        [served] = [p for p in query.points(experiment="fig6") if p.fingerprint == fingerprint]
        assert served.variance_ratio == 99.0
        assert served.result["measured_variance_ratio"] == 99.0

    def test_shard_lines_for_other_fingerprints_are_ignored(self, fixture_store):
        """A cell's record copied into another cell's shard is never served."""
        store = ResultsStore(fixture_store)
        moved, host = fig6_fingerprints()
        record = store.get(moved)
        host_result = store.get(host)["result"]
        store.shard_path(moved).unlink()
        with store.shard_path(host).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(record, result=dict(record["result"], x=1))) + "\n")
        points = StoreQuery(fixture_store).points(experiment="fig6")
        assert [point.fingerprint for point in points] == [host]
        assert points[0].result == host_result

    def test_foreign_schema_records_are_skipped(self, fixture_store):
        store = ResultsStore(fixture_store)
        fingerprint = fig6_fingerprints()[0]
        record = store.get(fingerprint)
        result = dict(record["result"], measured_variance_ratio=7.0)
        foreign = dict(record, schema=99, result=result)
        with store.shard_path(fingerprint).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(foreign) + "\n")
        [served] = StoreQuery(fixture_store).point("fig6/utilization=0.05")
        assert served.result == record["result"]

    def test_capture_records_are_never_served_as_points(
        self, fixture_store, put_capture_record
    ):
        """A capture winning a shard hides the cell record before it."""
        query = StoreQuery(fixture_store)
        fingerprint = fig6_fingerprints()[0]
        put_capture_record(
            ResultsStore(fixture_store),
            fingerprint,
            {"kind": "gateway-capture", "seed": 2003, "scenario": {}},
            {"intervals": {"train": {"low": [0.1] * 10}}},
        )
        assert [p.fingerprint for p in query.points(experiment="fig6")] == [
            fig6_fingerprints()[1]
        ]
        assert query.point("fig6/utilization=0.05") == []
        summary = {entry["experiment"]: entry for entry in query.experiments()}
        assert summary["fig6"]["records"] == 1


class TestCIBand:
    @pytest.fixture()
    def two_seed_store(self, tmp_path):
        """A store holding fig6 smoke cells at two seeds, with fake results.

        Results are synthetic (cheap) but structurally real; what matters is
        that the served bands match :func:`aggregate_cells` on
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

    def test_single_seed_point_is_rejected(self, query):
        with pytest.raises(ConfigurationError, match="at least two"):
            query.ci_band("fig6/utilization=0.05", confidence=0.95)

    def test_confidence_is_validated(self, query):
        with pytest.raises(ConfigurationError, match="confidence"):
            query.ci_band("fig6/utilization=0.05", confidence=1.5)
