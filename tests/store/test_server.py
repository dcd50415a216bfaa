"""Tests of the ``repro serve`` JSON HTTP API over the fixture store."""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import get_experiment
from repro.runner import ResultsStore, SweepRunner
from repro.runner.backends.queue import WorkQueue
from repro.store import StoreIndex, create_server

FIXTURE_CACHE = Path(__file__).resolve().parent.parent / "fixtures" / "sweep_cache"


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """An indexed fixture-store copy served on an ephemeral port."""
    root = tmp_path_factory.mktemp("served") / "cache"
    shutil.copytree(FIXTURE_CACHE, root)
    StoreIndex(root).refresh()
    server = create_server(root, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield root, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def get_json(base: str, path: str):
    with urllib.request.urlopen(base + path) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def post_json(base: str, path: str, payload) -> tuple:
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def error_of(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    body = json.loads(excinfo.value.read().decode("utf-8"))
    return excinfo.value.code, body


class TestEndpoints:
    def test_root_lists_the_endpoints(self, served):
        root, base = served
        status, body = get_json(base, "/")
        assert status == 200
        assert "GET /points?experiment=NAME" in body["endpoints"]
        assert body["store"] == str(root)

    def test_experiments_lists_registry_and_index(self, served):
        _, base = served
        status, body = get_json(base, "/experiments")
        assert status == 200
        by_name = {entry["experiment"]: entry for entry in body["experiments"]}
        assert {"fig4", "fig5", "fig6", "fig8"} <= set(by_name)
        assert by_name["fig6"]["indexed"]["points"] == 2
        assert by_name["fig6"]["description"]
        # Registered but uncached experiments still appear, unindexed.
        assert by_name["ablation_tap"]["indexed"] is None

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
        report = runner.run(experiment.cells())
        expected = experiment.assemble(report).to_text()
        assert body["report"] == expected

    def test_report_on_uncached_grid_is_409_with_missing_cells(self, served):
        _, base = served
        status, body = error_of(lambda: get_json(base, "/report/fig6?preset=fast"))
        assert status == 409
        assert len(body["missing"]) == 6
        assert "enqueue" in body["error"]


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

    def test_single_seed_ci_band_is_400(self, served):
        _, base = served
        key = urllib.parse.quote("fig6/utilization=0.05", safe="")
        status, body = error_of(
            lambda: get_json(base, f"/point/{key}?confidence=0.95")
        )
        assert status == 400
        assert "at least two" in body["error"]

    def test_invalid_enqueue_body_is_400(self, served):
        _, base = served
        request = urllib.request.Request(
            served[1] + "/enqueue", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"experiment": "fig6", "preset": "smoke", "seeds": "x"}, "seeds"),
            ({"experiment": "fig6", "preset": "smoke", "seed": "x"}, "seed"),
            ({"experiment": "fig6", "preset": "smoke", "seeds": [2, 3]}, "seeds"),
            ({"experiment": "fig6", "preset": "smoke", "seed": None}, "seed"),
        ],
    )
    def test_non_integer_enqueue_seed_is_400_naming_the_field(self, served, body, field):
        _, base = served
        status, error = error_of(lambda: post_json(base, "/enqueue", body))
        assert status == 400
        assert f"JSON field {field}=" in error["error"]
        assert "not an integer" in error["error"]

    def test_numeric_string_seeds_are_still_accepted(self, served):
        _, base = served
        status, body = post_json(
            base, "/enqueue", {"experiment": "fig6", "preset": "smoke", "seeds": "1"}
        )
        assert status == 200
        assert body["requested"] == body["cached"] + body["enqueued"] + body["already_queued"]

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_is_400(self, served, length):
        _, base = served
        host, port = urllib.parse.urlsplit(base).netloc.split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/enqueue")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            body = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]

    def test_enqueue_unknown_experiment_is_404(self, served):
        _, base = served
        status, _ = error_of(lambda: post_json(base, "/enqueue", {"experiment": "nope"}))
        assert status == 404


def queued_entries(root) -> dict:
    """Fingerprint → entry for every file under the store's ``queue/queued/``."""
    queue = WorkQueue(root)
    return {
        path.stem: json.loads(path.read_text())
        for path in sorted(queue.queued_dir.glob("*.json"))
    }


class TestEnqueue:
    def test_enqueue_writes_and_dedupes_queue_entries(self, served):
        root, base = served
        experiment = get_experiment("fig4", preset="fast")
        status, body = post_json(base, "/enqueue", {"experiment": "fig4", "preset": "fast"})
        assert status == 200
        assert body["requested"] == body["enqueued"] > 0
        assert body["cached"] == 0
        assert "pending_file" not in body
        entries = queued_entries(root)
        enqueued = [entries[cell.fingerprint()] for cell in experiment.cells()]
        assert len(enqueued) == body["enqueued"]
        assert all(
            entry["unit"] == "cell" and entry["config"] == cell.config_dict()
            for entry, cell in zip(enqueued, experiment.cells())
        )

        status, again = post_json(base, "/enqueue", {"experiment": "fig4", "preset": "fast"})
        assert again["enqueued"] == 0
        assert again["already_queued"] == body["enqueued"]
        assert not (root / "pending_cells.jsonl").exists()

    def test_fully_cached_experiment_enqueues_nothing(self, served):
        root, base = served
        status, body = post_json(base, "/enqueue", {"experiment": "fig6", "preset": "smoke"})
        assert status == 200
        assert body["cached"] == body["requested"] == 2
        assert body["enqueued"] == 0


class TestEnqueueCells:
    """``POST /enqueue`` with explicit cell payloads (the queue-worker route)."""

    def _payload(self, cell) -> dict:
        return {
            "cell_key": cell.key,
            "fingerprint": cell.fingerprint(),
            "config": cell.config_dict(),
        }

    def _fresh_cell(self, key="server/cells/fresh", seed=404):
        from repro.experiments import CollectionMode, ScenarioConfig
        from repro.runner import SweepCell

        return SweepCell(
            key=key,
            scenario=ScenarioConfig(n_hops=1, cross_utilization=0.42),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=seed,
        )

    def test_valid_cells_land_in_the_queue(self, served):
        root, base = served
        cell = self._fresh_cell()
        status, body = post_json(base, "/enqueue", {"cells": [self._payload(cell)]})
        assert status == 200
        assert body["requested"] == body["enqueued"] == 1
        entry = queued_entries(root)[cell.fingerprint()]
        assert entry["unit"] == "cell"
        assert entry["key"] == cell.key
        assert entry["config"] == cell.config_dict()
        # A repeated POST dedupes against the queue.
        _, again = post_json(base, "/enqueue", {"cells": [self._payload(cell)]})
        assert again["enqueued"] == 0
        assert again["already_queued"] == 1

    def test_a_cells_gateway_capture_is_enqueued_with_it(self, served):
        from repro.experiments import CollectionMode, ScenarioConfig
        from repro.runner import CaptureSpec, SweepCell

        root, base = served
        scenario = ScenarioConfig(n_hops=3, cross_utilization=0.37)
        capture = CaptureSpec(
            key="server/parent", scenario=scenario, n_intervals=241, seed=408
        )
        cells = [
            SweepCell(
                key=f"server/child{i}",
                scenario=ScenarioConfig(n_hops=3, cross_utilization=0.37 + 0.1 * i),
                sample_sizes=(60,),
                trials=4,
                mode=CollectionMode.HYBRID,
                seed=408,
                capture=capture,
            )
            for i in range(2)
        ]
        status, body = post_json(
            base, "/enqueue", {"cells": [self._payload(cell) for cell in cells]}
        )
        assert status == 200
        assert body["enqueued"] == 2
        entries = queued_entries(root)
        assert entries[capture.fingerprint()]["unit"] == "capture"
        assert entries[capture.fingerprint()]["config"] == capture.config_dict()
        assert all(entries[cell.fingerprint()]["unit"] == "cell" for cell in cells)

    def test_cached_cells_are_reported_not_enqueued(self, served):
        _, base = served
        experiment = get_experiment("fig6", preset="smoke")
        cached = experiment.cells()[0]
        status, body = post_json(base, "/enqueue", {"cells": [self._payload(cached)]})
        assert status == 200
        assert body["cached"] == 1
        assert body["enqueued"] == 0

    def test_mismatched_fingerprint_is_400_naming_the_mismatch(self, served):
        _, base = served
        cell = self._fresh_cell(key="server/cells/tampered", seed=405)
        payload = self._payload(cell)
        payload["fingerprint"] = "deadbeefdeadbeef"
        status, body = error_of(
            lambda: post_json(base, "/enqueue", {"cells": [payload]})
        )
        assert status == 400
        assert "does not match" in body["error"]
        assert "deadbeefdeadbeef" in body["error"]
        assert cell.fingerprint() in body["error"]

    def test_tampered_config_is_refused_the_same_way(self, served):
        _, base = served
        cell = self._fresh_cell(key="server/cells/config-tamper", seed=406)
        payload = self._payload(cell)
        payload["config"] = dict(payload["config"], trials=999)
        status, body = error_of(
            lambda: post_json(base, "/enqueue", {"cells": [payload]})
        )
        assert status == 400
        assert "does not match" in body["error"]

    def test_incomplete_cell_entry_is_400_naming_the_position(self, served):
        _, base = served
        cell = self._fresh_cell(key="server/cells/incomplete", seed=407)
        payload = self._payload(cell)
        del payload["config"]
        status, body = error_of(
            lambda: post_json(
                base, "/enqueue", {"cells": [self._payload(cell), payload]}
            )
        )
        assert status == 400
        assert "cells[1]" in body["error"]

    def test_empty_cells_list_is_400(self, served):
        _, base = served
        status, body = error_of(lambda: post_json(base, "/enqueue", {"cells": []}))
        assert status == 400
        assert "non-empty" in body["error"]


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
