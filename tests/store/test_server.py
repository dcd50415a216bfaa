"""Tests of the ``repro serve`` JSON HTTP API over the fixture store."""

from __future__ import annotations

import json
import shutil
import threading
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.store.server as server_module
from repro.api import get_experiment, list_experiments
from repro.runner import ResultsStore, SweepRunner, experiment_view
from repro.store import create_server

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"
#: More seeds than the fixture store has shard files, so never servable.
BEYOND_STORE = len(list(FIXTURE_CACHE.glob("??/*.jsonl"))) + 1


@contextmanager
def serving(root: Path):
    """Serve ``root`` on an ephemeral port; yields the base URL."""
    server = create_server(root, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A fixture-store copy served on an ephemeral port."""
    root = tmp_path_factory.mktemp("served") / "cache"
    shutil.copytree(FIXTURE_CACHE, root)
    with serving(root) as base:
        yield root, base


def get_json(base: str, path: str):
    with urllib.request.urlopen(base + path) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def error_of(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    with excinfo.value as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestEndpoints:
    def test_root_lists_the_endpoints(self, served):
        root, base = served
        status, body = get_json(base, "/")
        assert status == 200
        assert "GET /points?experiment=NAME" in body["endpoints"]
        assert body["store"] == str(root)

    def test_experiments_lists_registry_and_labels(self, served):
        _, base = served
        status, body = get_json(base, "/experiments")
        assert status == 200
        by_name = {entry["experiment"]: entry for entry in body["experiments"]}
        assert {"fig4", "fig5", "fig6", "fig8"} <= set(by_name)
        assert by_name["fig6"]["indexed"]["points"] == 2
        assert by_name["fig6"]["description"]
        # Registered but uncached experiments still appear, unindexed.
        assert by_name["ablation_tap"]["indexed"] is None

    def test_experiments_reads_no_record_after_start_up(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, root)
        with serving(root) as base:
            before = get_json(base, "/experiments")

            def no_read(*args):
                raise AssertionError(f"/experiments read a record: {args[1:]}")

            monkeypatch.setattr(ResultsStore, "get", no_read)
            monkeypatch.setattr(ResultsStore, "shard_winner", classmethod(no_read))
            assert get_json(base, "/experiments") == before

    def test_points_payload_matches_the_jsonl_records(self, served):
        """Acceptance: served values byte-identical to the stored records."""
        root, base = served
        status, body = get_json(base, "/points?experiment=fig6")
        assert status == 200
        assert body["experiment"] == "fig6"
        assert body["count"] == 2
        store = ResultsStore(root)
        for point in body["points"]:
            record = store.get(point["fingerprint"])
            assert record is not None
            assert point["result"] == record["result"]
            assert json.dumps(point["result"], sort_keys=True) == json.dumps(
                record["result"], sort_keys=True
            )

    def test_point_endpoint_returns_the_records(self, served):
        _, base = served
        key = urllib.parse.quote("fig6/utilization=0.05", safe="")
        status, body = get_json(base, f"/point/{key}")
        assert status == 200
        assert body["count"] == 1
        assert body["records"][0]["seed"] == 2003

    def test_report_matches_a_warm_sweep(self, served):
        """The served report equals one assembled by the sweep runner."""
        root, base = served
        status, body = get_json(base, "/report/fig6?preset=smoke")
        assert status == 200
        experiment = get_experiment("fig6", "smoke", 2003)
        runner = SweepRunner(store=ResultsStore(root))
        cells = experiment.cells()
        expected = experiment.assemble(experiment_view(runner.run(cells), cells)).to_text()
        assert body["report"] == expected

    @pytest.mark.parametrize("name", ["fig4", "fig5", "fig6", "fig8"])
    def test_every_cached_experiment_serves_its_warm_report(self, served, name):
        root, base = served
        status, body = get_json(base, f"/report/{name}?preset=smoke")
        assert status == 200
        experiment = get_experiment(name, "smoke", 2003)
        runner = SweepRunner(store=ResultsStore(root), backend="serial")
        cells = experiment.cells()
        report = runner.run(cells)
        assert runner.cache_misses == 0
        assert body["report"] == experiment.assemble(experiment_view(report, cells)).to_text()

    @pytest.mark.parametrize("name", list_experiments())
    def test_uncached_report_is_409_naming_repro_run(self, served, name):
        _, base = served
        status, body = error_of(lambda: get_json(base, f"/report/{name}?preset=paper"))
        assert status == 409
        cells = get_experiment(name, "paper", 2003).cells()
        assert body["missing"] == [cell.key for cell in cells]
        assert (body["experiment"], body["preset"]) == (name, "paper")
        assert "repro run NAME --preset P --cache-dir DIR" in body["error"]
        assert "enqueue" not in body["error"]

    def test_report_on_uncached_grid_is_409_with_missing_cells(self, served):
        _, base = served
        status, body = error_of(lambda: get_json(base, "/report/fig6?preset=fast"))
        assert status == 409
        assert len(body["missing"]) == 6
        assert "repro run NAME --preset P --cache-dir DIR" in body["error"]
        assert "enqueue" not in body["error"]


class TestErrorPaths:
    def test_points_without_experiment_is_400(self, served):
        _, base = served
        status, body = error_of(lambda: get_json(base, "/points"))
        assert status == 400
        assert "experiment" in body["error"]

    def test_unknown_experiment_is_404(self, served):
        _, base = served
        status, _ = error_of(lambda: get_json(base, "/points?experiment=nope"))
        assert status == 404

    def test_unknown_point_is_404(self, served):
        _, base = served
        status, _ = error_of(lambda: get_json(base, "/point/fig6%2Futilization%3D0.99"))
        assert status == 404

    def test_unknown_endpoint_is_404(self, served):
        _, base = served
        status, _ = error_of(lambda: get_json(base, "/nope"))
        assert status == 404

    def test_bad_seed_parameter_is_400(self, served):
        _, base = served
        status, _ = error_of(lambda: get_json(base, "/points?experiment=fig6&seed=x"))
        assert status == 400

    @pytest.mark.parametrize(
        "path, status, parameter",
        [
            ("/points?experiment=fig6&seed=1.5", 400, "seed"),
            ("/report/fig6?preset=smoke&seed=x", 400, "seed"),
            ("/report/fig6?preset=smoke&seeds=two", 400, "seeds"),
            ("/report/fig6?preset=smoke&seeds=0", 400, "seeds"),
            ("/report/fig6?preset=smoke&seeds=-3", 400, "seeds"),
            (f"/report/fig6?preset=smoke&seeds={BEYOND_STORE}", 409, "seeds"),
            ("/report/fig6?preset=smoke&confidence=high", 400, "confidence"),
            ("/point/fig6%2Futilization%3D0.05?confidence=high", 400, "confidence"),
        ],
        ids=["points-seed", "report-seed", "report-seeds", "report-seeds-zero",
             "report-seeds-negative", "report-seeds-beyond-store", "report-confidence",
             "point-confidence"],
    )
    def test_bad_query_parameter_is_refused_naming_it(
        self, served, monkeypatch, path, status, parameter
    ):
        """Refused before any report grid is expanded: every stored seed has a
        shard file, so more seeds than the store has shards can never be
        served."""
        expanded = []
        monkeypatch.setattr(server_module, "seed_range", lambda *args: expanded.append(args))
        _, base = served
        code, body = error_of(lambda: get_json(base, path))
        assert code == status
        assert f"query parameter {parameter}=" in body["error"]
        assert expanded == []

    def test_single_seed_ci_band_is_400(self, served):
        _, base = served
        key = urllib.parse.quote("fig6/utilization=0.05", safe="")
        status, body = error_of(
            lambda: get_json(base, f"/point/{key}?confidence=0.95")
        )
        assert status == 400
        assert "at least two" in body["error"]


def store_files(root: Path) -> list:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def store_snapshot(root: Path) -> dict:
    """Every file under ``root`` with its size and modification time."""
    return {
        str(path.relative_to(root)): (path.stat().st_size, path.stat().st_mtime_ns)
        for path in root.rglob("*")
        if path.is_file()
    }


class TestReadOnly:
    def test_root_lists_only_get_endpoints(self, served):
        _, base = served
        _, body = get_json(base, "/")
        assert body["endpoints"]
        assert all(endpoint.startswith("GET ") for endpoint in body["endpoints"])

    def test_post_enqueue_is_refused_and_writes_nothing(self, served):
        root, base = served
        before = store_files(root)
        request = urllib.request.Request(
            base + "/enqueue",
            data=json.dumps({"experiment": "fig4", "preset": "fast"}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        excinfo.value.close()
        assert not 200 <= excinfo.value.code < 300
        assert store_files(root) == before

    @pytest.mark.parametrize("method", ["POST", "PUT", "PATCH", "DELETE"])
    @pytest.mark.parametrize(
        "path",
        ["/", "/experiments", "/report/fig6?preset=smoke", "/enqueue"],
        ids=["root", "experiments", "report", "enqueue"],
    )
    def test_write_methods_are_501_and_write_nothing(self, served, method, path):
        """No route answers a method other than GET; the store is untouched."""
        root, base = served
        before = store_snapshot(root)
        request = urllib.request.Request(
            base + path,
            data=json.dumps({"experiment": "fig6", "preset": "fast"}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method=method,
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        excinfo.value.close()
        assert excinfo.value.code == 501
        assert store_snapshot(root) == before

    @pytest.mark.parametrize("leftover", ["queue", "index.sqlite"])
    def test_store_with_files_of_an_earlier_release_serves_the_same_report(
        self, tmp_path, leftover
    ):
        """A ``queue/`` directory or an ``index.sqlite`` left by an earlier
        release is never read.

        The queue's result shard holds a record for a fixture cell with a
        different result, so a store that read it would serve a different
        report; the index is garbage bytes.
        """
        clean, legacy = tmp_path / "clean", tmp_path / "legacy"
        shutil.copytree(FIXTURE_CACHE, clean)
        shutil.copytree(FIXTURE_CACHE, legacy)
        if leftover == "index.sqlite":
            (legacy / "index.sqlite").write_bytes(b"SQLite format 3\x00\xff\x00garbage")
        else:
            cell = get_experiment("fig6", "smoke", 2003).cells()[0]
            record = ResultsStore(clean).get(cell.fingerprint())
            forged = dict(record, result=dict(record["result"], measured_variance_ratio=99.0))
            queue = legacy / "queue"
            for name in ("queued", "leased", "results", "workers", "tmp"):
                (queue / name).mkdir(parents=True)
            entry = {"unit": "cell", "key": cell.key, "config": record["config"]}
            (queue / "queued" / f"{cell.fingerprint()}.json").write_text(json.dumps(entry))
            (queue / "leased" / f"{cell.fingerprint()}.host-1.json").write_text(
                json.dumps(entry)
            )
            (queue / "results" / "host-1.jsonl").write_text(json.dumps(forged) + "\n")
            (queue / "workers" / "host-1.heartbeat").touch()
            (queue / "clock").touch()

        assert ResultsStore(legacy).stats() == ResultsStore(clean).stats()
        assert [path.name for path in ResultsStore(legacy).shard_files()] == [
            path.name for path in ResultsStore(clean).shard_files()
        ]
        reports = []
        for root in (clean, legacy):
            with serving(root) as base:
                status, body = get_json(base, "/report/fig6?preset=smoke")
                assert status == 200
                _, points = get_json(base, "/points?experiment=fig6")
                reports.append((body["report"], points))
        assert reports[0] == reports[1]
        runner = SweepRunner(store=ResultsStore(legacy), backend="serial")
        runner.run(get_experiment("fig6", "smoke", 2003).cells())
        assert runner.cache_misses == 0


class TestFreshReads:
    def test_a_cell_stored_after_start_up_is_served(self, tmp_path):
        """Every request reads the shards: a cell rewritten while the server
        runs is served with its new result."""
        root = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, root)
        cell = get_experiment("fig6", "smoke", 2003).cells()[0]
        key = urllib.parse.quote(cell.key, safe="")
        with serving(root) as base:
            store = ResultsStore(root)
            record = store.get(cell.fingerprint())
            changed = dict(record["result"], measured_variance_ratio=99.0)
            store.put(cell.fingerprint(), record["config"], changed)
            _, points = get_json(base, "/points?experiment=fig6")
            _, point = get_json(base, f"/point/{key}")
        [served] = [p for p in points["points"] if p["fingerprint"] == cell.fingerprint()]
        assert served["result"] == changed
        assert served["variance_ratio"] == 99.0
        assert [r["result"] for r in point["records"]] == [changed]

    def test_a_seed_stored_after_start_up_serves_its_multi_seed_report(self, tmp_path):
        """The one-seed store cannot serve ``seeds=2`` at start-up; once the
        second seed's cells are stored, the next request serves it."""
        root = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, root)
        path = "/report/fig6?preset=smoke&seeds=2"
        with serving(root) as base:
            status, body = error_of(lambda: get_json(base, path))
            assert status == 409 and body["missing"]
            store = ResultsStore(root)
            first = get_experiment("fig6", "smoke", 2003).cells()
            second = get_experiment("fig6", "smoke", 2004).cells()
            for old, new in zip(first, second):
                record = store.get(old.fingerprint())
                store.put(new.fingerprint(), record["config"], record["result"])
            status, body = get_json(base, path)
        assert status == 200
        assert body["seeds"] == [2003, 2004]

    def test_a_cell_at_a_seed_new_after_start_up_is_listed(self, tmp_path):
        """Labels grow with the store: fig6 smoke cells stored at seed 2004
        into a served one-seed copy are listed without a restart."""
        root = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, root)
        first = get_experiment("fig6", "smoke", 2003).cells()
        second = get_experiment("fig6", "smoke", 2004).cells()
        key = urllib.parse.quote(second[0].key, safe="")
        path = "/points?experiment=fig6&seed=2004"
        with serving(root) as base:
            assert get_json(base, path)[1]["count"] == 0
            store = ResultsStore(root)
            for old, new in zip(first, second):
                result = store.get(old.fingerprint())["result"]
                store.put(new.fingerprint(), new.config_dict(), result)
            _, points = get_json(base, path)
            _, point = get_json(base, f"/point/{key}")
            _, experiments = get_json(base, "/experiments")
        assert sorted(p["fingerprint"] for p in points["points"]) == sorted(
            cell.fingerprint() for cell in second
        )
        assert [record["seed"] for record in point["records"]] == [2003, 2004]
        [fig6] = [e for e in experiments["experiments"] if e["experiment"] == "fig6"]
        assert fig6["indexed"]["seeds"] == 2


class TestServeCommand:
    def test_repro_serve_answers_from_the_store_as_it_stands(self, tmp_path, monkeypatch, capsys):
        """``repro serve`` on a fixture copy, with no preparation step: it lists
        the figures, serves fig6's points with their results, and each point's
        records hold the result its ``/points`` entry shows."""
        import repro.store
        from repro.cli import main

        root = tmp_path / "cache"
        shutil.copytree(FIXTURE_CACHE, root)
        servers = []
        ready = threading.Event()

        def create(*args, **kwargs):
            servers.append(create_server(*args, **kwargs))
            ready.set()
            return servers[-1]

        monkeypatch.setattr(repro.store, "create_server", create)
        exits = []
        argv = ["serve", "--cache-dir", str(root), "--port", "0"]
        thread = threading.Thread(target=lambda: exits.append(main(argv)), daemon=True)
        thread.start()
        try:
            assert ready.wait(timeout=30)
            port = servers[0].server_address[1]
            base = f"http://127.0.0.1:{port}"
            _, experiments = get_json(base, "/experiments")
            _, points = get_json(base, "/points?experiment=fig6")
            records = {}
            for point in points["points"]:
                key = urllib.parse.quote(point["point_key"], safe="")
                for record in get_json(base, f"/point/{key}")[1]["records"]:
                    records[record["fingerprint"]] = record["result"]
        finally:
            if servers:
                servers[0].shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert exits == [0]
        assert capsys.readouterr().out == (
            f"serving {root} on http://127.0.0.1:{port} (Ctrl-C to stop)\n"
        )
        names = {entry["experiment"] for entry in experiments["experiments"]}
        assert {"fig4", "fig5", "fig6", "fig8"} <= names
        assert points["experiment"] == "fig6"
        assert points["count"] == len(points["points"]) == 2
        for point in points["points"]:
            assert point["point_key"].startswith("fig6/")
            assert "empirical_detection_rate" in point["result"]
            assert records[point["fingerprint"]] == point["result"]


class TestConcurrency:
    def test_hammering_points_returns_identical_bodies(self, served):
        _, base = served
        baseline = get_json(base, "/points?experiment=fig6")[1]

        def fetch(_):
            return get_json(base, "/points?experiment=fig6")

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(fetch, range(32)))
        assert all(status == 200 for status, _ in outcomes)
        assert all(body == baseline for _, body in outcomes)
