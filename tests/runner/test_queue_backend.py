"""Tests for the filesystem work queue: protocol primitives, parity, recovery.

The queue backend's claims are strong — byte-identical results at any worker
count, survival of SIGKILLed workers mid-lease, loud rejection of tampered
payloads — so each is pinned here against the serial reference.  Local
workers are forked, which is what lets the parent's monkeypatched
``repro.runner.runner.run_cell`` (the fault-injection seam every backend
shares) reach into worker processes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.exceptions import ConfigurationError, SweepError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import CaptureSpec, ResultsStore, SweepCell, SweepRunner
from repro.runner.backends.base import TaskFailure
from repro.runner.backends.queue import (
    QueueBackend,
    WorkQueue,
    drain_pending,
    entry_from_task,
    merge_outcomes,
    run_worker,
)


def grid(n_cells: int = 4, **overrides) -> list:
    cells = []
    for i in range(n_cells):
        utilization = 0.05 + 0.1 * i
        params = dict(
            key=f"grid/util={utilization:.2f}",
            scenario=ScenarioConfig(n_hops=1, cross_utilization=utilization),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=7,
        )
        params.update(overrides)
        cells.append(SweepCell(**params))
    return cells


def two_level_cells(n: int = 2) -> list:
    """Hybrid children sharing one gateway capture (the fig8 shape)."""
    cells = []
    for i in range(n):
        scenario = ScenarioConfig(n_hops=3, cross_utilization=0.1 + 0.2 * i)
        capture = CaptureSpec(
            key="parent",
            scenario=scenario,
            n_intervals=241,
            seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        cells.append(
            SweepCell(
                key=f"child/util={0.1 + 0.2 * i:.1f}",
                scenario=scenario,
                sample_sizes=(60,),
                trials=4,
                mode=CollectionMode.HYBRID,
                seed=11,
                seed_offsets=("train-x", "test-x"),
                capture=capture,
            )
        )
    return cells


def comparable(result) -> tuple:
    return (
        result.empirical_detection_rate,
        result.measured_variance_ratio,
        result.measured_means,
        result.piat_stats,
    )


SHORT = dict(lease_timeout=5.0, poll_interval=0.02)


class TestWorkQueuePrimitives:
    def test_enqueue_claim_release_cycle(self, tmp_path):
        queue = WorkQueue(tmp_path)
        entry = entry_from_task(("cell", grid(1)[0], None))
        assert queue.enqueue(entry) is True
        assert queue.enqueue(entry) is False  # already queued
        lease = queue.claim("w1")
        assert lease is not None and lease.name.endswith(".w1.json")
        assert queue.claim("w2") is None  # nothing left
        queue.release(lease)
        assert queue.claim("w2") is not None

    def test_claim_is_atomic_under_racing_workers(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", grid(1)[0], None)))
        winners = [queue.claim(f"w{i}") for i in range(8)]
        assert sum(1 for lease in winners if lease is not None) == 1

    def test_stale_lease_is_stolen_only_after_heartbeat_expiry(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", grid(1)[0], None)))
        queue.heartbeat("owner")
        lease = queue.claim("owner")
        assert lease is not None
        # Fresh heartbeat: nothing to steal.
        assert queue.steal("thief", lease_timeout=60.0) is None
        # Missing heartbeat counts as stale immediately.
        queue.remove_heartbeat("owner")
        stolen = queue.steal("thief", lease_timeout=60.0)
        assert stolen is not None and stolen.name.endswith(".thief.json")

    def test_requeue_stale_returns_work_to_the_queue(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", grid(1)[0], None)))
        queue.claim("ghost")  # never heartbeats
        assert queue.requeue_stale(lease_timeout=60.0) == 1
        assert queue.claim("live") is not None

    def test_fingerprints_must_be_hashlike_tokens(self, tmp_path):
        queue = WorkQueue(tmp_path)
        with pytest.raises(ConfigurationError):
            queue.enqueue({"fingerprint": "../../etc/passwd"})

    @pytest.mark.parametrize(
        "token, valid",
        [
            ("", False),
            ("ab", False),
            ("a/../b", False),
            ("a b", False),
            ("ab.c", False),
            ("x" * 129, False),
            ("abc", True),
            ("A1b2C3", True),
            ("f" * 128, True),
        ],
    )
    def test_queue_and_store_accept_the_same_fingerprints(self, tmp_path, token, valid):
        """One rule decides which strings may become file names in both places."""

        def accepted(call) -> bool:
            try:
                call()
            except ConfigurationError:
                return False
            return True

        store = ResultsStore(tmp_path / "store")
        queue = WorkQueue(tmp_path / "queue")
        assert accepted(lambda: store.shard_path(token)) is valid
        assert accepted(lambda: queue.enqueue({"fingerprint": token})) is valid

    def test_worker_ids_with_dots_parse_back_out_of_leases(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", grid(1)[0], None)))
        lease = queue.claim("host.example.com-42")
        fingerprint, owner = WorkQueue._parse_lease(lease)
        assert owner == "host.example.com-42"
        assert fingerprint == grid(1)[0].fingerprint()

    def test_result_shards_only_yield_complete_lines(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.ensure()
        shard = queue.results_dir / "w.jsonl"
        shard.write_text('{"fingerprint": "aa", "status": "ok"}\n{"partial')
        offsets: dict = {}
        records = list(queue.read_new_records(offsets))
        assert [r["fingerprint"] for r in records] == ["aa"]
        # Completing the partial line surfaces it on the next scan.
        shard.write_text(
            '{"fingerprint": "aa", "status": "ok"}\n'
            '{"fingerprint": "bb", "status": "ok"}\n'
        )
        assert [r["fingerprint"] for r in queue.read_new_records(offsets)] == ["bb"]

    def test_status_counts_queue_state(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for cell in grid(3):
            queue.enqueue(entry_from_task(("cell", cell, None)))
        queue.heartbeat("w")
        queue.claim("w")
        counters = queue.status()
        assert counters["queued"] == 2
        assert counters["leased"] == 1
        assert counters["stale_leases"] == 0
        assert counters["workers_live"] == 1


class TestQueueParity:
    def test_byte_identical_to_serial_at_every_worker_count(self, tmp_path):
        cells = grid()
        reference = SweepRunner(backend="serial").run(cells)
        for workers in (1, 2, 4):
            store = ResultsStore(tmp_path / f"store-{workers}")
            report = SweepRunner(
                jobs=workers,
                store=store,
                backend="queue",
                backend_options=dict(SHORT),
            ).run(cells)
            assert list(report.results) == list(reference.results)
            for key in reference.results:
                assert comparable(report[key]) == comparable(reference[key])
            # The store records are the full serialised results; they must
            # match the serial reference exactly, minus wall-clock bookkeeping.
            for key, result in reference.results.items():
                stored = store.get(result.fingerprint)["result"]
                expected = result.to_json_dict()
                stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
                assert stored == expected

    def test_two_level_cells_flow_through_the_queue(self, tmp_path):
        cells = two_level_cells(2)
        reference = SweepRunner(backend="serial", store=ResultsStore(tmp_path / "ref")).run(
            cells
        )
        store = ResultsStore(tmp_path / "store")
        report = SweepRunner(
            jobs=2, store=store, backend="queue", backend_options=dict(SHORT)
        ).run(cells)
        assert report.captures_simulated == 1  # one shared gateway capture
        for key in reference.results:
            assert comparable(report[key]) == comparable(reference[key])

    def test_warm_queue_run_hits_the_cache_without_workers(self, tmp_path):
        cells = grid(3)
        store_dir = tmp_path / "store"
        SweepRunner(
            jobs=2,
            store=ResultsStore(store_dir),
            backend="queue",
            backend_options=dict(SHORT),
        ).run(cells)
        warm = SweepRunner(
            jobs=2,
            store=ResultsStore(store_dir),
            backend="queue",
            backend_options=dict(SHORT),
        ).run(cells)
        assert (warm.hits, warm.misses) == (3, 0)


class TestQueueFailures:
    def test_worker_failure_aborts_naming_the_cell(self, tmp_path):
        cells = grid(1, features=("bogus",))
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(
                jobs=1,
                store=ResultsStore(tmp_path),
                backend="queue",
                backend_options=dict(SHORT),
            ).run(cells)
        message = str(excinfo.value)
        assert cells[0].key in message
        assert "worker traceback" in message

    def test_transient_failures_are_retried_through_the_queue(
        self, tmp_path, monkeypatch
    ):
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        counters = tmp_path / "attempts"
        counters.mkdir()

        def flaky(cell, capture=None):
            counter = counters / cell.fingerprint()[:12]
            attempts = int(counter.read_text()) if counter.exists() else 0
            counter.write_text(str(attempts + 1))
            if attempts < 1:
                raise RuntimeError(f"transient failure #{attempts + 1}")
            return real_run_cell(cell, capture=capture)

        monkeypatch.setattr(runner_module, "run_cell", flaky)
        lines: list = []
        cells = grid(2)
        report = SweepRunner(
            jobs=2,
            store=ResultsStore(tmp_path / "store"),
            backend="queue",
            retries=2,
            progress=lines.append,
            backend_options=dict(SHORT),
        ).run(cells)
        assert len(report.results) == 2
        assert any("retrying" in line for line in lines)

    def test_wait_timeout_fails_loudly_without_workers(self, tmp_path):
        store = ResultsStore(tmp_path)
        backend = QueueBackend(
            store,
            spawn_workers=False,
            wait_timeout=0.5,
            poll_interval=0.02,
        )
        tasks = [("cell", cell, None) for cell in grid(1)]
        with pytest.raises(SweepError) as excinfo:
            list(backend.execute(tasks))
        assert "repro worker" in str(excinfo.value)


class TestCrashRecovery:
    def test_sigkilled_worker_mid_lease_is_rescued(self, tmp_path, monkeypatch):
        """Kill a worker holding a lease; a sibling steals and completes it.

        The victim's first attempt hangs (marker-gated sleep) and is then
        SIGKILLed — heartbeat thread and all.  Once its heartbeat goes stale
        the rescuer steals the lease, and because cells are pure functions of
        their config the re-execution produces the identical record.
        """
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        cells = grid(1)
        reference = SweepRunner(backend="serial").run(cells)
        store = ResultsStore(tmp_path / "store")
        queue = WorkQueue(store.root)
        queue.ensure()
        entry = entry_from_task(("cell", cells[0], None))
        queue.enqueue(entry)

        marker = tmp_path / "pass"

        def sleepy(cell, capture=None):
            if not marker.exists():
                time.sleep(60.0)
            return real_run_cell(cell, capture=capture)

        monkeypatch.setattr(runner_module, "run_cell", sleepy)
        context = multiprocessing.get_context("fork")
        worker_kwargs = dict(
            store_root=str(store.root),
            poll_interval=0.02,
            lease_timeout=1.0,
        )
        victim = context.Process(
            target=run_worker,
            kwargs=dict(worker_kwargs, worker_id="victim"),
            daemon=True,
        )
        victim.start()
        deadline = time.monotonic() + 30.0
        while not any(queue.leased_dir.glob("*.victim.json")):
            assert time.monotonic() < deadline, "victim never claimed the lease"
            time.sleep(0.02)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join()
        marker.write_text("")  # attempts after the crash succeed

        rescuer = context.Process(
            target=run_worker,
            kwargs=dict(worker_kwargs, worker_id="rescuer", max_idle=20.0),
            daemon=True,
        )
        rescuer.start()
        try:
            outcomes = list(
                merge_outcomes(
                    queue,
                    {entry["fingerprint"]: entry},
                    poll_interval=0.02,
                    lease_timeout=1.0,
                    wait_timeout=60.0,
                )
            )
        finally:
            rescuer.terminate()
            rescuer.join()
        assert len(outcomes) == 1
        assert not isinstance(outcomes[0], TaskFailure)
        assert comparable(outcomes[0]) == comparable(reference[cells[0].key])

    def test_stale_results_from_previous_attempts_are_ignored(self, tmp_path):
        """A failure record from a superseded attempt must not consume a retry."""
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        queue.ensure()
        cell = grid(1)[0]
        entry = entry_from_task(("cell", cell, None))
        # A shard record from attempt 2 arrives while the merge loop still
        # tracks attempt 1 (e.g. the original owner reported after a steal
        # and re-enqueue): it must be skipped, not double-counted.
        queue.append_result(
            "ghost",
            {
                "fingerprint": entry["fingerprint"],
                "status": "failed",
                "error": "stale",
                "attempt": 2,
            },
        )
        queue.append_result(
            "live",
            {
                "fingerprint": entry["fingerprint"],
                "status": "failed",
                "error": "real",
                "worker_traceback": "tb",
                "attempt": 1,
            },
        )
        outcomes = list(
            merge_outcomes(
                queue,
                {entry["fingerprint"]: entry},
                retries=0,
                poll_interval=0.02,
                wait_timeout=10.0,
            )
        )
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].error == "real"


class TestDrainPending:
    def _seed_pending(self, store_root, cells) -> None:
        from repro.store.server import PENDING_FILENAME

        lines = [
            json.dumps(
                {
                    "schema": 1,
                    "cell_key": cell.key,
                    "fingerprint": cell.fingerprint(),
                    "config": cell.config_dict(),
                },
                sort_keys=True,
            )
            for cell in cells
        ]
        (store_root / PENDING_FILENAME).write_text("\n".join(lines) + "\n")

    def test_drains_pending_cells_into_the_store(self, tmp_path):
        from repro.store.server import PENDING_FILENAME

        cells = grid(3)
        store = ResultsStore(tmp_path)
        self._seed_pending(store.root, cells)
        report = drain_pending(store.root, workers=2, **SHORT)
        assert report.requested == 3
        assert report.cells_computed == 3
        assert report.pending_remaining == 0
        assert not (store.root / PENDING_FILENAME).exists()
        for cell in cells:
            assert store.get(cell.fingerprint()) is not None

    def test_drained_results_match_the_serial_reference(self, tmp_path):
        cells = grid(2)
        reference = SweepRunner(backend="serial").run(cells)
        store = ResultsStore(tmp_path)
        self._seed_pending(store.root, cells)
        drain_pending(store.root, workers=2, **SHORT)
        for cell in cells:
            stored = store.get(cell.fingerprint())["result"]
            expected = reference[cell.key].to_json_dict()
            stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert stored == expected

    def test_two_level_pending_cells_resolve_their_captures_first(self, tmp_path):
        cells = two_level_cells(2)
        store = ResultsStore(tmp_path)
        self._seed_pending(store.root, cells)
        report = drain_pending(store.root, workers=2, **SHORT)
        assert report.captures_computed == 1
        assert report.cells_computed == 2

    def test_already_cached_cells_are_skipped(self, tmp_path):
        cells = grid(2)
        store = ResultsStore(tmp_path)
        SweepRunner(backend="serial", store=store).run([cells[0]])
        self._seed_pending(store.root, cells)
        report = drain_pending(store.root, workers=1, **SHORT)
        assert report.already_cached == 1
        assert report.cells_computed == 1

    def test_tampered_fingerprint_is_refused_before_any_work(self, tmp_path):
        from repro.store.server import PENDING_FILENAME

        cells = grid(1)
        store = ResultsStore(tmp_path)
        line = {
            "schema": 1,
            "cell_key": cells[0].key,
            "fingerprint": "0" * 64,
            "config": cells[0].config_dict(),
        }
        (store.root / PENDING_FILENAME).write_text(json.dumps(line) + "\n")
        with pytest.raises(ConfigurationError) as excinfo:
            drain_pending(store.root, workers=1, **SHORT)
        assert "does not match" in str(excinfo.value)

    def test_malformed_pending_line_names_the_line_number(self, tmp_path):
        from repro.store.server import PENDING_FILENAME

        store = ResultsStore(tmp_path)
        (store.root / PENDING_FILENAME).write_text("not json\n")
        with pytest.raises(ConfigurationError) as excinfo:
            drain_pending(store.root, workers=1, **SHORT)
        assert ":1:" in str(excinfo.value)

    def test_empty_pending_file_is_a_noop(self, tmp_path):
        store = ResultsStore(tmp_path)
        report = drain_pending(store.root, workers=1, **SHORT)
        assert report.requested == 0
        assert report.cells_computed == 0
