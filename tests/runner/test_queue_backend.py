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
import sys
import threading
import time

import pytest

from repro.exceptions import ConfigurationError, SweepError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import CaptureSpec, ResultsStore, SweepCell, SweepRunner
from repro.runner.backends.base import TaskFailure
from repro.runner.backends.queue import (
    QueueBackend,
    WorkQueue,
    drain_queue,
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
        entry = entry_from_task(("cell", grid(1)[0]))
        assert queue.enqueue(entry) is True
        assert queue.enqueue(entry) is False  # already queued
        lease = queue.claim("w1")
        assert lease is not None and lease.name.endswith(".w1.json")
        assert queue.claim("w2") is None  # nothing left
        queue.release(lease)
        assert queue.claim("w2") is not None

    def test_claim_is_atomic_under_racing_workers(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", grid(1)[0])))
        winners = [queue.claim(f"w{i}") for i in range(8)]
        assert sum(1 for lease in winners if lease is not None) == 1

    def test_stale_lease_is_stolen_only_after_heartbeat_expiry(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", grid(1)[0])))
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
        queue.enqueue(entry_from_task(("cell", grid(1)[0])))
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
        queue.enqueue(entry_from_task(("cell", grid(1)[0])))
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
        records = [record for _, record in queue.read_new_records(offsets)]
        assert [r["fingerprint"] for r in records] == ["aa"]
        # Completing the partial line surfaces it on the next scan.
        shard.write_text(
            '{"fingerprint": "aa", "status": "ok"}\n'
            '{"fingerprint": "bb", "status": "ok"}\n'
        )
        assert [r["fingerprint"] for _, r in queue.read_new_records(offsets)] == ["bb"]

    def test_status_counts_queue_state(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for cell in grid(3):
            queue.enqueue(entry_from_task(("cell", cell)))
        queue.heartbeat("w")
        queue.claim("w")
        counters = queue.status()
        assert counters["queued"] == 2
        assert counters["leased"] == 1
        assert counters["stale_leases"] == 0
        assert counters["workers_live"] == 1

    def test_claim_skips_the_entries_it_is_told_to(self, tmp_path):
        queue = WorkQueue(tmp_path)
        first, second = sorted(grid(2), key=lambda cell: cell.fingerprint())
        for cell in (first, second):
            queue.enqueue(entry_from_task(("cell", cell)))
        lease = queue.claim("w", skip={first.fingerprint()})
        assert lease is not None and lease.name.startswith(second.fingerprint())
        assert queue.claim("w", skip={first.fingerprint()}) is None
        assert queue.claim("w") is not None

    def test_threads_enqueueing_one_entry_never_collide(self, tmp_path):
        """Threads of one process stage the same fingerprint under distinct names.

        A tiny switch interval makes the threads interleave inside
        ``enqueue``; with a per-process staging name the race lost an
        ``os.replace`` within a few rounds.
        """
        queue = WorkQueue(tmp_path)
        entries = [
            entry_from_task(("cell", cell))
            for seed in range(5)
            for cell in grid(4, seed=seed)
        ]
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for entry in entries:
                barrier = threading.Barrier(8)

                def enqueue(entry=entry, barrier=barrier) -> None:
                    barrier.wait()
                    try:
                        queue.enqueue(entry)
                    except Exception as exc:  # pragma: no cover - the regression
                        errors.append(exc)

                threads = [threading.Thread(target=enqueue) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sorted(path.name for path in queue.queued_dir.glob("*.json")) == sorted(
            f"{entry['fingerprint']}.json" for entry in entries
        )
        assert list(queue.tmp_dir.iterdir()) == []


def enqueue_with_captures(store_root, cells) -> None:
    """Queue cells and their gateway captures, as ``POST /enqueue`` does."""
    queue = WorkQueue(store_root)
    for cell in cells:
        if cell.capture is not None:
            queue.enqueue(entry_from_task(("capture", cell.capture)))
        queue.enqueue(entry_from_task(("cell", cell)))


def shard_records(queue: WorkQueue) -> list:
    return [record for _, record in queue.read_new_records({})]


def _run_worker_process(store_root: str) -> None:
    run_worker(store_root, worker_id="lone", poll_interval=0.02, max_idle=1.0)


class TestWorkerLoop:
    def test_lone_worker_reaches_a_capture_sorted_after_its_cell(self, tmp_path):
        """A released cell must not shadow the capture it waits for.

        The capture's fingerprint sorts after a cell's, so a worker that
        re-claimed the first sorted entry would spin on that released cell
        forever and never count as idle.  Run it in a process with a hard
        deadline: it must execute the capture and exit on ``max_idle``.
        """
        cells = two_level_cells(2)
        capture_fp = cells[0].capture.fingerprint()
        assert min(cell.fingerprint() for cell in cells) < capture_fp
        store = ResultsStore(tmp_path)
        enqueue_with_captures(store.root, cells)
        worker = multiprocessing.get_context("fork").Process(
            target=_run_worker_process, args=(str(store.root),), daemon=True
        )
        worker.start()
        worker.join(timeout=30.0)
        if worker.is_alive():
            worker.terminate()
            worker.join()
            pytest.fail("a lone worker spun on a released cell past its max_idle")
        assert worker.exitcode == 0
        queue = WorkQueue(store.root)
        records = shard_records(queue)
        # No parent stored the capture, so both cells are still waiting.
        assert [record["fingerprint"] for record in records] == [capture_fp]
        assert records[0]["status"] == "ok"
        assert queue.status()["queued"] == 2

    def test_worker_refuses_an_entry_whose_config_was_overwritten(self, tmp_path):
        claimed, other = grid(2)
        queue = WorkQueue(tmp_path)
        entry = entry_from_task(("cell", claimed))
        entry["config"] = other.config_dict()
        queue.enqueue(entry)
        assert run_worker(tmp_path, worker_id="w", poll_interval=0.02, max_tasks=1) == 1
        (record,) = shard_records(queue)
        assert record["fingerprint"] == claimed.fingerprint()
        assert record["status"] == "failed"
        assert "does not match" in record["error"]

    def test_shard_records_carry_their_entry_config(self, tmp_path):
        cell = grid(1)[0]
        queue = WorkQueue(tmp_path)
        queue.enqueue(entry_from_task(("cell", cell)))
        run_worker(tmp_path, worker_id="w", poll_interval=0.02, max_tasks=1)
        (record,) = shard_records(queue)
        assert record["status"] == "ok"
        assert record["config"] == cell.config_dict()


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
        tasks = [("cell", cell) for cell in grid(1)]
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
        entry = entry_from_task(("cell", cells[0]))
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

    def test_retry_is_queued_while_the_failed_lease_still_exists(self, tmp_path):
        """The failure record can be read before its worker unlinks the lease."""
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        entry = entry_from_task(("cell", grid(1)[0]))
        queue.enqueue(entry)
        queue.heartbeat("w")
        assert queue.claim("w") is not None
        queue.append_result(
            "w",
            {"fingerprint": entry["fingerprint"], "status": "failed", "attempt": 1},
        )
        with pytest.raises(SweepError):  # no worker runs the retry
            list(
                merge_outcomes(
                    queue,
                    {entry["fingerprint"]: entry},
                    retries=1,
                    poll_interval=0.02,
                    wait_timeout=0.3,
                )
            )
        retry = json.loads((queue.queued_dir / f"{entry['fingerprint']}.json").read_text())
        assert retry["attempt"] == 2

    def test_retry_budget_counts_from_the_attempt_an_entry_arrives_at(self, tmp_path):
        """An entry queued at attempt 3 still gets ``retries`` more tries."""
        queue = WorkQueue(tmp_path)
        entry = entry_from_task(("cell", grid(1)[0]), attempt=3)
        queue.append_result(
            "w",
            {"fingerprint": entry["fingerprint"], "status": "failed", "attempt": 3},
        )
        with pytest.raises(SweepError) as excinfo:  # no worker runs the retry
            list(
                merge_outcomes(
                    queue,
                    {entry["fingerprint"]: entry},
                    retries=1,
                    poll_interval=0.02,
                    wait_timeout=0.3,
                )
            )
        assert "timed out" in str(excinfo.value)
        retry = json.loads((queue.queued_dir / f"{entry['fingerprint']}.json").read_text())
        assert retry["attempt"] == 4

    def test_stale_results_from_previous_attempts_are_ignored(self, tmp_path):
        """A failure record from a superseded attempt must not consume a retry."""
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        queue.ensure()
        cell = grid(1)[0]
        entry = entry_from_task(("cell", cell))
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


class TestDrainQueue:
    def test_drains_queued_cells_into_the_store(self, tmp_path):
        cells = grid(3)
        store = ResultsStore(tmp_path)
        enqueue_with_captures(store.root, cells)
        report = drain_queue(store.root, workers=2, **SHORT)
        assert report.outstanding == 3
        assert report.cells_computed == 3
        counters = WorkQueue(store.root).status()
        assert (counters["queued"], counters["leased"]) == (0, 0)
        for cell in cells:
            assert store.get(cell.fingerprint()) is not None

    def test_drained_results_match_the_serial_reference(self, tmp_path):
        cells = grid(2)
        reference = SweepRunner(backend="serial").run(cells)
        store = ResultsStore(tmp_path)
        enqueue_with_captures(store.root, cells)
        drain_queue(store.root, workers=2, **SHORT)
        for cell in cells:
            stored = store.get(cell.fingerprint())["result"]
            expected = reference[cell.key].to_json_dict()
            stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert stored == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_two_level_cells_get_their_capture(self, tmp_path, workers):
        cells = two_level_cells(2)
        reference = SweepRunner(backend="serial").run(cells)
        store = ResultsStore(tmp_path)
        enqueue_with_captures(store.root, cells)
        report = drain_queue(store.root, workers=workers, timeout=120.0, **SHORT)
        assert report.captures_computed == 1
        assert report.cells_computed == 2
        assert store.get(cells[0].capture.fingerprint(), kind="capture") is not None
        for cell in cells:
            stored = store.get(cell.fingerprint())["result"]
            expected = reference[cell.key].to_json_dict()
            stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert stored == expected

    def test_already_cached_cells_are_skipped(self, tmp_path):
        cells = grid(2)
        store = ResultsStore(tmp_path)
        SweepRunner(backend="serial", store=store).run([cells[0]])
        enqueue_with_captures(store.root, cells)
        report = drain_queue(store.root, workers=1, **SHORT)
        assert report.already_cached == 1
        assert report.cells_computed == 1
        assert WorkQueue(store.root).status()["queued"] == 0

    def test_tampered_entry_is_refused_before_any_work(self, tmp_path):
        cells = grid(1)
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        entry = entry_from_task(("cell", cells[0]))
        entry["fingerprint"] = "0" * 64
        queue.enqueue(entry)
        with pytest.raises(ConfigurationError) as excinfo:
            drain_queue(store.root, workers=1, **SHORT)
        assert "does not match" in str(excinfo.value)
        assert str(queue.queued_dir / f"{'0' * 64}.json") in str(excinfo.value)
        assert queue.status()["queued"] == 1  # nothing was claimed
        assert shard_records(queue) == []

    def test_tampered_shard_record_is_refused_naming_the_shard(self, tmp_path):
        claimed, other = grid(2)
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        queue.append_result(
            "w",
            {
                "unit": "cell",
                "key": claimed.key,
                "fingerprint": claimed.fingerprint(),
                "config": other.config_dict(),
                "status": "ok",
                "attempt": 1,
                "result": {},
            },
        )
        with pytest.raises(ConfigurationError) as excinfo:
            drain_queue(store.root, **SHORT)
        assert "does not match" in str(excinfo.value)
        assert str(queue.results_dir / "w.jsonl") in str(excinfo.value)
        assert store.get(claimed.fingerprint()) is None

    def test_malformed_queue_file_names_its_path(self, tmp_path):
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        queue.ensure()
        path = queue.queued_dir / "abc123.json"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError) as excinfo:
            drain_queue(store.root, workers=1, **SHORT)
        assert str(path) in str(excinfo.value)

    def test_empty_queue_is_a_noop(self, tmp_path):
        store = ResultsStore(tmp_path)
        report = drain_queue(store.root, workers=1, **SHORT)
        assert report.outstanding == 0
        assert report.cells_computed == 0

    def test_result_finished_before_the_drain_still_reaches_the_store(self, tmp_path):
        """A shard record whose parent never merged it is stored, not stranded."""
        cells = grid(2)
        reference = SweepRunner(backend="serial").run(cells)
        store = ResultsStore(tmp_path)
        enqueue_with_captures(store.root, cells)
        assert run_worker(store.root, worker_id="early", poll_interval=0.02, max_tasks=2) == 2
        assert all(store.get(cell.fingerprint()) is None for cell in cells)
        # No workers and a short timeout: nothing is left to execute.
        report = drain_queue(store.root, workers=0, timeout=10.0, **SHORT)
        assert report.outstanding == 2
        assert report.cells_computed == 2
        for cell in cells:
            stored = store.get(cell.fingerprint())["result"]
            expected = reference[cell.key].to_json_dict()
            stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert stored == expected
        # Stored results are no longer outstanding.
        assert drain_queue(store.root, workers=0, timeout=10.0, **SHORT).outstanding == 0

    def test_backlog_file_from_an_earlier_release_is_refused(self, tmp_path):
        store = ResultsStore(tmp_path)
        enqueue_with_captures(store.root, grid(1))
        (store.root / "pending_cells.jsonl").write_text("{}\n")
        with pytest.raises(ConfigurationError) as excinfo:
            drain_queue(store.root, workers=1, **SHORT)
        assert "pending_cells.jsonl" in str(excinfo.value)
        assert WorkQueue(store.root).status()["queued"] == 1

    def test_cell_failed_before_the_drain_is_not_reported_as_done(self, tmp_path):
        """A worker's failure with no merge running leaves the cell owed."""
        cell = grid(1, features=("bogus",))[0]
        store = ResultsStore(tmp_path)
        queue = WorkQueue(store.root)
        enqueue_with_captures(store.root, [cell])
        assert run_worker(store.root, worker_id="early", poll_interval=0.02, max_tasks=1) == 1
        assert (queue.status()["queued"], queue.status()["leased"]) == (0, 0)
        with pytest.raises(SweepError) as excinfo:
            drain_queue(store.root, workers=1, timeout=60.0, **SHORT)
        message = str(excinfo.value)
        assert cell.key in message
        assert "timed out" not in message
        assert store.get(cell.fingerprint()) is None
        failures = [record for record in shard_records(queue) if record["status"] == "failed"]
        assert [record["attempt"] for record in failures] == [1, 2]

    def test_transient_failure_before_the_drain_is_retried(self, tmp_path, monkeypatch):
        """Re-enqueued at attempt 1 (as ``POST /enqueue`` would), the cell
        must not be failed by the older attempt-1 record in the shards."""
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        marker = tmp_path / "healthy"

        def flaky(cell, capture=None):
            if not marker.exists():
                raise RuntimeError("transient failure")
            return real_run_cell(cell, capture=capture)

        cells = grid(2)
        reference = SweepRunner(backend="serial").run(cells)
        monkeypatch.setattr(runner_module, "run_cell", flaky)
        store = ResultsStore(tmp_path / "store")
        queue = WorkQueue(store.root)
        enqueue_with_captures(store.root, cells)
        assert run_worker(store.root, worker_id="early", poll_interval=0.02, max_tasks=2) == 2
        marker.write_text("")
        enqueue_with_captures(store.root, cells[:1])  # one cell re-requested
        report = drain_queue(store.root, workers=1, timeout=60.0, **SHORT)
        assert report.outstanding == 2
        assert report.cells_computed == 2
        for cell in cells:
            stored = store.get(cell.fingerprint())["result"]
            expected = reference[cell.key].to_json_dict()
            stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert stored == expected
        assert (queue.status()["queued"], queue.status()["leased"]) == (0, 0)

    def test_failed_capture_is_retried_by_the_next_drain(self, tmp_path, monkeypatch):
        """A drain that gave up on a capture leaves its cells queued; the
        next drain must run the capture again, not wait on them forever."""
        import repro.runner.runner as runner_module
        from repro.runner.capture import run_capture as real_run_capture

        marker = tmp_path / "healthy"

        def flaky(spec):
            if not marker.exists():
                raise RuntimeError("capture host went away")
            return real_run_capture(spec)

        cells = two_level_cells(2)
        reference = SweepRunner(backend="serial").run(cells)
        monkeypatch.setattr(runner_module, "run_capture", flaky)
        store = ResultsStore(tmp_path / "store")
        queue = WorkQueue(store.root)
        enqueue_with_captures(store.root, cells)
        for _ in range(2):  # the first drain, and a re-run while still failing
            with pytest.raises(SweepError) as excinfo:
                drain_queue(store.root, workers=1, timeout=60.0, **SHORT)
            assert "gateway capture" in str(excinfo.value)
            assert "timed out" not in str(excinfo.value)
        marker.write_text("")
        report = drain_queue(store.root, workers=1, timeout=60.0, **SHORT)
        assert (report.captures_computed, report.cells_computed) == (1, 2)
        for cell in cells:
            stored = store.get(cell.fingerprint())["result"]
            expected = reference[cell.key].to_json_dict()
            stored.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
            assert stored == expected
        assert (queue.status()["queued"], queue.status()["leased"]) == (0, 0)

    def test_missing_capture_of_a_queued_cell_is_enqueued(self, tmp_path):
        """A hybrid cell queued without its capture still drains."""
        cells = two_level_cells(1)
        store = ResultsStore(tmp_path)
        WorkQueue(store.root).enqueue(entry_from_task(("cell", cells[0])))
        report = drain_queue(store.root, workers=1, timeout=60.0, **SHORT)
        assert report.outstanding == 2
        assert (report.captures_computed, report.cells_computed) == (1, 1)
        assert store.get(cells[0].fingerprint()) is not None
