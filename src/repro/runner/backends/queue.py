"""The queue backend: a filesystem work queue drained by pull-based workers.

Everything lives under ``<store root>/queue/`` — any process that can see
the results store (including workers on other hosts sharing the filesystem)
can participate::

    <store root>/queue/
    ├── queued/<fingerprint>.json            # unclaimed work, content-addressed
    ├── leased/<fingerprint>.<worker>.json   # claimed work, one file per lease
    ├── results/<worker>.jsonl               # per-worker result shards
    ├── workers/<worker>.heartbeat           # liveness beacons (mtime = last beat)
    ├── tmp/                                 # staging for atomic enqueues
    └── clock                                # shared filesystem clock probe

The protocol rests on one primitive: ``os.rename`` is atomic on POSIX
filesystems, so *claiming* a cell is renaming ``queued/<fp>.json`` to
``leased/<fp>.<worker>.json`` — exactly one renamer wins, the losers get
``FileNotFoundError`` and move on.  Workers touch their heartbeat file while
they run; a lease whose owner's heartbeat is older than the lease timeout is
presumed dead and its cell is *stolen* (renamed to the thief's own lease) by
any live worker, or requeued by the parent.  Time comparisons use the
``clock`` probe file's mtime — the filesystem's own clock, consistent across
every host mounting the store — never local wall-clock time.

Workers append outcomes to their private result shard (single writer per
file, so appends never interleave), and only the parent process merges
shards into the shared :class:`~repro.runner.store.ResultsStore` — the
store's single-writer contract is preserved end to end.  Results are
content-addressed, and cells are pure functions of their config, so the one
benign race — two workers computing the same cell after a steal of a
not-actually-dead worker — produces identical records and last-record-wins
semantics make it invisible.

See ``docs/distributed.md`` for the full protocol walk-through.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import re
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError, SweepError
from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    Task,
    TaskFailure,
    TaskOutcome,
    execute_task,
    validate_retries,
)
from repro.runner.backends.codec import (
    capture_from_config,
    cell_from_config,
    verify_fingerprint,
)
from repro.runner.backends.process import default_mp_context
from repro.runner.capture import CaptureResult, CaptureSpec
from repro.runner.cells import CellResult, SweepCell
from repro.runner.store import _FINGERPRINT_RE, ResultsStore

#: Version of the queue entry / result-shard record layout.
QUEUE_SCHEMA_VERSION = 1

#: Directory name of the queue, under the results-store root.
QUEUE_DIRNAME = "queue"

#: Seconds of heartbeat silence after which a worker is presumed dead and
#: its leases become stealable.
DEFAULT_LEASE_TIMEOUT = 30.0

#: Seconds idle workers (and the merging parent) sleep between scans.
DEFAULT_POLL_INTERVAL = 0.05

_WORKER_ID_BAD_CHARS = re.compile(r"[^A-Za-z0-9_.-]+")


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per process, stable for its lifetime.

    Deliberately not a random token — worker ids name heartbeat files and
    leases that humans debug, and the determinism rules (RNG003) ban
    ``uuid4``-style identifiers anyway.
    """
    node = _WORKER_ID_BAD_CHARS.sub("-", platform.node() or "host").strip("-")
    return f"{node or 'host'}-{os.getpid()}"


def entry_from_task(task: Task, attempt: int = 1) -> Dict[str, Any]:
    """The JSON queue entry for one task (cell or capture)."""
    if task[0] == "capture":
        spec = task[1]
        return {
            "schema": QUEUE_SCHEMA_VERSION,
            "unit": "capture",
            "key": spec.key,
            "fingerprint": spec.fingerprint(),
            "config": spec.config_dict(),
            "attempt": attempt,
        }
    cell = task[1]
    return {
        "schema": QUEUE_SCHEMA_VERSION,
        "unit": "cell",
        "key": cell.key,
        "fingerprint": cell.fingerprint(),
        "config": cell.config_dict(),
        "attempt": attempt,
    }


class WorkQueue:
    """Filesystem primitives of the queue protocol (no policy, no loops)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root) / QUEUE_DIRNAME
        self.queued_dir = self.root / "queued"
        self.leased_dir = self.root / "leased"
        self.results_dir = self.root / "results"
        self.workers_dir = self.root / "workers"
        self.tmp_dir = self.root / "tmp"
        self.clock_path = self.root / "clock"

    def ensure(self) -> None:
        for directory in (
            self.queued_dir,
            self.leased_dir,
            self.results_dir,
            self.workers_dir,
            self.tmp_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # ----------------------------------------------------------------- clock
    def now(self) -> float:
        """The shared filesystem clock: touch the probe, read its mtime.

        Heartbeat freshness must be judged by the *same* clock the heartbeat
        was written with; on a shared filesystem that is the filesystem's
        clock, not any single host's wall clock (which the determinism rules
        ban from this codebase regardless).
        """
        self.ensure()
        self.clock_path.touch()
        return self.clock_path.stat().st_mtime

    # --------------------------------------------------------------- enqueue
    def enqueue(self, entry: Dict[str, Any]) -> bool:
        """Stage and atomically publish one entry; False if already active."""
        fingerprint = str(entry.get("fingerprint", ""))
        if _FINGERPRINT_RE.fullmatch(fingerprint) is None:
            raise ConfigurationError(
                f"queue entry fingerprint {fingerprint!r} is not a safe "
                f"hash-like token"
            )
        self.ensure()
        if self.is_active(fingerprint):
            return False
        staging = self.tmp_dir / f"{fingerprint}.{os.getpid()}.json"
        staging.write_text(json.dumps(entry, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(staging, self.queued_dir / f"{fingerprint}.json")
        return True

    def is_active(self, fingerprint: str) -> bool:
        """Whether the fingerprint is currently queued or leased."""
        if (self.queued_dir / f"{fingerprint}.json").exists():
            return True
        if not self.leased_dir.is_dir():
            return False
        return any(self.leased_dir.glob(f"{fingerprint}.*.json"))

    def discard_queued(self, fingerprint: str) -> None:
        """Drop a queued entry whose result arrived by another route."""
        try:
            (self.queued_dir / f"{fingerprint}.json").unlink()
        except FileNotFoundError:
            pass

    # ----------------------------------------------------------------- leases
    def claim(self, worker_id: str) -> Optional[Path]:
        """Atomically claim the first queued entry; None when queue is empty."""
        self.ensure()
        for path in sorted(self.queued_dir.glob("*.json")):
            target = self.leased_dir / f"{path.stem}.{worker_id}.json"
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue  # lost the rename race to another worker
            return target
        return None

    def steal(self, worker_id: str, lease_timeout: float) -> Optional[Path]:
        """Take over one lease whose owner's heartbeat has gone stale."""
        if not self.leased_dir.is_dir():
            return None
        now = self.now()
        for path in sorted(self.leased_dir.glob("*.json")):
            fingerprint, owner = self._parse_lease(path)
            if owner is None or owner == worker_id:
                continue
            if self.heartbeat_fresh(owner, lease_timeout, now=now):
                continue
            target = self.leased_dir / f"{fingerprint}.{worker_id}.json"
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue
            return target
        return None

    def release(self, lease_path: Path) -> None:
        """Put a leased entry back in the queue (e.g. its capture isn't ready)."""
        fingerprint, _ = self._parse_lease(lease_path)
        if fingerprint is None:
            return
        try:
            os.replace(lease_path, self.queued_dir / f"{fingerprint}.json")
        except FileNotFoundError:
            pass  # stolen from under us; the thief owns it now

    def requeue_stale(self, lease_timeout: float) -> int:
        """Requeue every lease held by a stale worker; returns the count."""
        if not self.leased_dir.is_dir():
            return 0
        now = self.now()
        requeued = 0
        for path in sorted(self.leased_dir.glob("*.json")):
            fingerprint, owner = self._parse_lease(path)
            if owner is None or self.heartbeat_fresh(owner, lease_timeout, now=now):
                continue
            try:
                os.replace(path, self.queued_dir / f"{fingerprint}.json")
            except FileNotFoundError:
                continue
            requeued += 1
        return requeued

    @staticmethod
    def _parse_lease(path: Path) -> Tuple[Optional[str], Optional[str]]:
        name = path.name
        if not name.endswith(".json"):
            return None, None
        stem = name[: -len(".json")]
        fingerprint, sep, owner = stem.partition(".")
        if not sep or not fingerprint or not owner:
            return None, None
        return fingerprint, owner

    # ------------------------------------------------------------- heartbeats
    def heartbeat(self, worker_id: str) -> None:
        self.ensure()
        (self.workers_dir / f"{worker_id}.heartbeat").touch()

    def remove_heartbeat(self, worker_id: str) -> None:
        try:
            (self.workers_dir / f"{worker_id}.heartbeat").unlink()
        except FileNotFoundError:
            pass

    def heartbeat_fresh(
        self, worker_id: str, lease_timeout: float, now: Optional[float] = None
    ) -> bool:
        path = self.workers_dir / f"{worker_id}.heartbeat"
        try:
            beat = path.stat().st_mtime
        except FileNotFoundError:
            return False
        if now is None:
            now = self.now()
        return now - beat <= lease_timeout

    # ---------------------------------------------------------- result shards
    def append_result(self, worker_id: str, record: Dict[str, Any]) -> None:
        """Append one record to the worker's private shard (single writer)."""
        self.ensure()
        line = json.dumps(record, sort_keys=True) + "\n"
        with (self.results_dir / f"{worker_id}.jsonl").open(
            "a", encoding="utf-8"
        ) as handle:
            handle.write(line)

    def read_new_records(self, offsets: Dict[str, int]) -> Iterator[Dict[str, Any]]:
        """Yield shard records not seen before, advancing ``offsets`` in place.

        Only complete (newline-terminated) lines are consumed — a worker may
        be mid-append — and unparsable lines are skipped but still advance
        the offset, so one corrupt record cannot wedge the merge loop.
        """
        if not self.results_dir.is_dir():
            return
        for shard in sorted(self.results_dir.glob("*.jsonl")):
            try:
                text = shard.read_text(encoding="utf-8")
            except OSError:  # pragma: no cover - shard vanished mid-scan
                continue
            end = text.rfind("\n")
            if end < 0:
                continue
            lines = text[: end + 1].splitlines()
            for index in range(offsets.get(shard.name, 0), len(lines)):
                offsets[shard.name] = index + 1
                line = lines[index].strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    yield record

    # ----------------------------------------------------------------- status
    def status(self, lease_timeout: float = DEFAULT_LEASE_TIMEOUT) -> Dict[str, int]:
        """Counters for ``repro queue status``."""
        queued = len(sorted(self.queued_dir.glob("*.json"))) if self.queued_dir.is_dir() else 0
        leases = sorted(self.leased_dir.glob("*.json")) if self.leased_dir.is_dir() else []
        shards = sorted(self.results_dir.glob("*.jsonl")) if self.results_dir.is_dir() else []
        beats = sorted(self.workers_dir.glob("*.heartbeat")) if self.workers_dir.is_dir() else []
        now = self.now() if (leases or beats) else 0.0
        stale_leases = 0
        for path in leases:
            _, owner = self._parse_lease(path)
            if owner is None or not self.heartbeat_fresh(owner, lease_timeout, now=now):
                stale_leases += 1
        live_workers = sum(
            1 for path in beats if now - path.stat().st_mtime <= lease_timeout
        )
        records = 0
        for shard in shards:
            try:
                records += shard.read_text(encoding="utf-8").count("\n")
            except OSError:  # pragma: no cover - shard vanished mid-scan
                continue
        return {
            "queued": queued,
            "leased": len(leases),
            "stale_leases": stale_leases,
            "workers_live": live_workers,
            "workers_total": len(beats),
            "result_shards": len(shards),
            "result_records": records,
        }


# ------------------------------------------------------------------- workers
class _Heartbeat:
    """A daemon thread touching the worker's heartbeat file while it runs."""

    def __init__(self, queue: WorkQueue, worker_id: str, interval: float) -> None:
        self._queue = queue
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        # Beat once before any claim: a lease must never exist without a
        # heartbeat, or a sibling would steal it the moment it appears.
        self._queue.heartbeat(self._worker_id)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._queue.heartbeat(self._worker_id)

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._queue.remove_heartbeat(self._worker_id)


def _execute_entry(store: ResultsStore, entry: Dict[str, Any]) -> Tuple[Any, ...]:
    """Rebuild and run one queue entry.

    Returns ``("ok", outcome)``, ``("failed", error, worker_traceback)`` or
    ``("wait",)`` when a child cell's gateway capture has not reached the
    store yet (the entry is released back to the queue).
    """
    try:
        if entry.get("unit") == "capture":
            spec = capture_from_config(entry["key"], entry["config"])
            task: Task = ("capture", spec)
        else:
            cell = cell_from_config(entry["key"], entry["config"])
            capture_result = None
            if cell.capture is not None:
                capture_fp = cell.capture.fingerprint()
                record = store.get(capture_fp, kind="capture")
                if record is None:
                    return ("wait",)
                capture_result = CaptureResult.from_json_dict(
                    cell.capture.key, capture_fp, record["result"]
                )
            task = ("cell", cell, capture_result)
    except Exception as exc:
        return ("failed", f"{type(exc).__name__}: {exc}", traceback.format_exc())
    outcome = execute_task(task)
    if isinstance(outcome, TaskFailure):
        return ("failed", outcome.error, outcome.worker_traceback)
    return ("ok", outcome)


def run_worker(
    store_root: Union[str, Path],
    worker_id: Optional[str] = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    max_idle: Optional[float] = None,
    max_tasks: Optional[int] = None,
    progress: ProgressFn = None,
) -> int:
    """The pull-based worker loop behind ``repro worker``.

    Claims queued entries (stealing from stale siblings when the queue is
    empty), executes them, and appends outcomes to this worker's private
    result shard.  Runs until stopped — or until ``max_idle`` seconds pass
    without work, or ``max_tasks`` entries have been executed.  Returns the
    number of executed entries.
    """
    if poll_interval <= 0.0:
        raise ConfigurationError(f"poll_interval={poll_interval!r} must be positive")
    if lease_timeout <= 0.0:
        raise ConfigurationError(f"lease_timeout={lease_timeout!r} must be positive")
    store = ResultsStore(store_root)
    queue = WorkQueue(store.root)
    queue.ensure()
    wid = _WORKER_ID_BAD_CHARS.sub("-", worker_id or default_worker_id()).strip("-")
    if not wid:
        raise ConfigurationError(f"worker_id={worker_id!r} has no usable characters")

    executed = 0
    beat_interval = max(poll_interval, lease_timeout / 4.0)
    with _Heartbeat(queue, wid, interval=beat_interval):
        idle_since = time.monotonic()
        while max_tasks is None or executed < max_tasks:
            lease = queue.claim(wid)
            if lease is None:
                lease = queue.steal(wid, lease_timeout)
            if lease is None:
                if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                    break
                time.sleep(poll_interval)
                continue
            if _work_one_lease(store, queue, wid, lease, progress):
                executed += 1
                idle_since = time.monotonic()
            else:
                # The entry was released (capture not ready) or was corrupt;
                # don't spin on it.
                time.sleep(poll_interval)
    if progress is not None:
        progress(f"worker {wid}: executed {executed} task(s)")
    return executed


def _work_one_lease(
    store: ResultsStore,
    queue: WorkQueue,
    worker_id: str,
    lease: Path,
    progress: ProgressFn,
) -> bool:
    """Execute one leased entry end to end; True if a record was written."""
    try:
        entry = json.loads(lease.read_text(encoding="utf-8"))
        if not isinstance(entry, dict):
            raise ValueError("queue entry is not an object")
    except (OSError, ValueError):
        # Stolen from under us, or corrupt beyond attribution: drop it.
        lease.unlink(missing_ok=True)
        return False
    result = _execute_entry(store, entry)
    if result[0] == "wait":
        queue.release(lease)
        if progress is not None:
            progress(
                f"worker {worker_id}: cell {entry.get('key')} waits for its "
                f"gateway capture; requeued"
            )
        return False
    record = {
        "schema": QUEUE_SCHEMA_VERSION,
        "unit": entry.get("unit", "cell"),
        "key": entry.get("key"),
        "fingerprint": entry.get("fingerprint"),
        "attempt": entry.get("attempt", 1),
    }
    if result[0] == "ok":
        outcome = result[1]
        record["status"] = "ok"
        record["result"] = outcome.to_json_dict()
        if progress is not None:
            progress(
                f"worker {worker_id}: {entry.get('unit', 'cell')} "
                f"{entry.get('key')} done in {outcome.elapsed_seconds:.2f}s"
            )
    else:
        record["status"] = "failed"
        record["error"] = result[1]
        record["worker_traceback"] = result[2]
        if progress is not None:
            progress(
                f"worker {worker_id}: {entry.get('unit', 'cell')} "
                f"{entry.get('key')} failed: {result[1]}"
            )
    queue.append_result(worker_id, record)
    lease.unlink(missing_ok=True)
    return True


class LocalWorkerPool:
    """Worker processes the parent spawns and reaps around one drain."""

    def __init__(
        self,
        store_root: Union[str, Path],
        count: int,
        mp_context: Optional[str] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        context = multiprocessing.get_context(
            mp_context if mp_context is not None else default_mp_context()
        )
        self._queue = WorkQueue(store_root)
        self.worker_ids = [f"{default_worker_id()}-local{i}" for i in range(count)]
        self._procs = []
        for wid in self.worker_ids:
            proc = context.Process(
                target=run_worker,
                kwargs={
                    "store_root": str(store_root),
                    "worker_id": wid,
                    "poll_interval": poll_interval,
                    "lease_timeout": lease_timeout,
                },
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def stop(self) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
        for wid in self.worker_ids:
            self._queue.remove_heartbeat(wid)


# ------------------------------------------------------------- parent merge
def merge_outcomes(
    queue: WorkQueue,
    entries: Dict[str, Dict[str, Any]],
    retries: int = 0,
    progress: ProgressFn = None,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    wait_timeout: Optional[float] = None,
) -> Iterator[TaskOutcome]:
    """The single-writer parent loop: shard records → one outcome per entry.

    ``entries`` maps fingerprint → queue entry.  Yields exactly one terminal
    outcome per fingerprint: the rebuilt result, or a
    :class:`~repro.runner.backends.base.TaskFailure` once a cell has failed
    ``retries + 1`` times (each accepted failure re-enqueues the entry with
    an incremented attempt counter; failure records from superseded attempts
    — e.g. a stolen cell whose original owner also reported — are ignored).
    Leases of stale workers are requeued as a backstop even when no worker
    is alive to steal them.
    """
    pending = dict(entries)
    attempts = {fingerprint: 1 for fingerprint in pending}
    max_attempts = validate_retries(retries) + 1
    offsets: Dict[str, int] = {}
    deadline = (
        time.monotonic() + wait_timeout if wait_timeout is not None else None
    )
    while pending:
        progressed = False
        for record in queue.read_new_records(offsets):
            fingerprint = record.get("fingerprint")
            if fingerprint not in pending:
                continue  # duplicate (post-steal) or foreign record
            entry = pending[fingerprint]
            unit = "gateway capture" if entry["unit"] == "capture" else "cell"
            if record.get("status") == "ok":
                if entry["unit"] == "capture":
                    outcome: TaskOutcome = CaptureResult.from_json_dict(
                        entry["key"], fingerprint, record["result"], from_cache=False
                    )
                else:
                    outcome = CellResult.from_json_dict(
                        entry["key"], fingerprint, record["result"], from_cache=False
                    )
                pending.pop(fingerprint)
                queue.discard_queued(fingerprint)
                progressed = True
                yield outcome
            elif record.get("status") == "failed":
                if record.get("attempt", attempts[fingerprint]) != attempts[fingerprint]:
                    continue  # a superseded attempt's failure; already handled
                if attempts[fingerprint] < max_attempts:
                    attempts[fingerprint] += 1
                    if progress is not None:
                        progress(
                            f"{unit} {entry['key']}: failed, retrying "
                            f"(attempt {attempts[fingerprint]}/{max_attempts})"
                        )
                    retry_entry = dict(entry)
                    retry_entry["attempt"] = attempts[fingerprint]
                    pending[fingerprint] = retry_entry
                    queue.enqueue(retry_entry)
                else:
                    pending.pop(fingerprint)
                    progressed = True
                    yield TaskFailure(
                        key=entry["key"],
                        error=str(record.get("error", "worker failure")),
                        worker_traceback=str(record.get("worker_traceback", "")),
                        unit=unit,
                    )
        if not pending:
            return
        requeued = queue.requeue_stale(lease_timeout)
        if requeued and progress is not None:
            progress(f"queue: requeued {requeued} entr(ies) from stale leases")
        if deadline is not None and time.monotonic() > deadline:
            raise SweepError(
                f"queue wait timed out after {wait_timeout:g}s with "
                f"{len(pending)} entr(ies) outstanding; start workers with "
                f"'repro worker --cache-dir <store>' or raise the timeout"
            )
        if not progressed:
            time.sleep(poll_interval)


class QueueBackend(ExecutionBackend):
    """Distributed execution through the filesystem work queue.

    By default the backend spawns ``workers`` local worker processes for the
    duration of the call (so ``--backend queue --jobs 4`` is self-contained);
    with ``spawn_workers=False`` it only enqueues and merges, relying on
    externally started ``repro worker`` processes — the fleet mode.
    """

    name = "queue"

    def __init__(
        self,
        store: Optional[ResultsStore],
        workers: int = 1,
        retries: int = 0,
        progress: ProgressFn = None,
        mp_context: Optional[str] = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        spawn_workers: bool = True,
        wait_timeout: Optional[float] = None,
    ) -> None:
        if store is None:
            raise ConfigurationError(
                "the queue backend needs a persistent results store; pass "
                "--cache-dir (workers resolve shared captures through it)"
            )
        if spawn_workers and workers < 1:
            raise ConfigurationError(
                f"workers={workers!r} must be >= 1 to spawn local queue workers"
            )
        if lease_timeout <= 0.0:
            raise ConfigurationError(
                f"lease_timeout={lease_timeout!r} must be positive seconds"
            )
        self.store = store
        self.workers = workers
        self.retries = validate_retries(retries)
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.spawn_workers = spawn_workers
        self.wait_timeout = wait_timeout
        self._mp_context = mp_context
        self._progress = progress

    def execute(self, tasks: List[Task]) -> Iterator[TaskOutcome]:
        if not tasks:
            return
        queue = WorkQueue(self.store.root)
        queue.ensure()
        entries: Dict[str, Dict[str, Any]] = {}
        for task in tasks:
            entry = entry_from_task(task)
            entries[entry["fingerprint"]] = entry
            queue.enqueue(entry)
        pool = None
        if self.spawn_workers:
            pool = LocalWorkerPool(
                self.store.root,
                self.workers,
                mp_context=self._mp_context,
                poll_interval=self.poll_interval,
                lease_timeout=self.lease_timeout,
            )
        try:
            yield from merge_outcomes(
                queue,
                entries,
                retries=self.retries,
                progress=self._progress,
                poll_interval=self.poll_interval,
                lease_timeout=self.lease_timeout,
                wait_timeout=self.wait_timeout,
            )
        finally:
            if pool is not None:
                pool.stop()


# ----------------------------------------------------------------- draining
@dataclass(frozen=True)
class DrainReport:
    """Outcome of one ``repro queue drain`` run."""

    requested: int
    already_cached: int
    deduplicated: int
    captures_computed: int
    cells_computed: int
    pending_remaining: int

    def __str__(self) -> str:
        return (
            f"{self.requested} pending entr(ies): {self.cells_computed} cells "
            f"computed ({self.captures_computed} gateway captures), "
            f"{self.already_cached} already cached, "
            f"{self.deduplicated} duplicates, "
            f"{self.pending_remaining} left pending"
        )


def drain_pending(
    store_root: Union[str, Path],
    workers: int = 0,
    retries: int = 0,
    timeout: Optional[float] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    mp_context: Optional[str] = None,
    progress: ProgressFn = None,
) -> DrainReport:
    """Drain ``pending_cells.jsonl`` through the work queue into the store.

    Closes the loop from ``POST /enqueue``: every pending line is
    fingerprint-verified (a line whose fingerprint does not hash from its
    config is refused loudly — it would poison the cache), already-cached
    cells are skipped, and the rest are queued in two phases — shared
    gateway captures first, then the cells that consume them — so a worker
    never has to wait long for a parent capture.  With ``workers > 0`` local
    worker processes are spawned for the duration; with ``workers == 0`` the
    call relies on externally running ``repro worker`` processes (pass
    ``timeout`` so an empty fleet fails loudly instead of blocking forever).
    Cells that reach the store are pruned from the pending file at the end.
    """
    from repro.store.server import PENDING_FILENAME

    store = ResultsStore(store_root)
    pending_path = store.root / PENDING_FILENAME
    records = _read_pending(pending_path)

    cells: Dict[str, SweepCell] = {}
    already_cached = 0
    duplicates = 0
    for record in records:
        cell = cell_from_config(record["cell_key"], record["config"])
        fingerprint = cell.fingerprint()
        if fingerprint in cells:
            duplicates += 1
            continue
        if store.get(fingerprint) is not None:
            already_cached += 1
            continue
        cells[fingerprint] = cell

    captures: Dict[str, CaptureSpec] = {}
    for cell in cells.values():
        if cell.capture is None:
            continue
        capture_fp = cell.capture.fingerprint()
        if capture_fp in captures or store.get(capture_fp, kind="capture") is not None:
            continue
        captures[capture_fp] = cell.capture

    pool = None
    if workers > 0:
        pool = LocalWorkerPool(
            store.root,
            workers,
            mp_context=mp_context,
            poll_interval=poll_interval,
            lease_timeout=lease_timeout,
        )
    backend = QueueBackend(
        store,
        workers=workers,
        retries=retries,
        progress=progress,
        mp_context=mp_context,
        lease_timeout=lease_timeout,
        poll_interval=poll_interval,
        spawn_workers=False,
        wait_timeout=timeout,
    )
    captures_computed = cells_computed = 0
    try:
        capture_tasks: List[Task] = [("capture", spec) for spec in captures.values()]
        for outcome in backend.execute(capture_tasks):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"{outcome.unit} {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            store.put(
                outcome.fingerprint,
                captures[outcome.fingerprint].config_dict(),
                outcome.to_json_dict(),
                kind="capture",
            )
            captures_computed += 1
        cell_tasks: List[Task] = [("cell", cell, None) for cell in cells.values()]
        for outcome in backend.execute(cell_tasks):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"{outcome.unit} {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            store.put(
                outcome.fingerprint,
                cells[outcome.fingerprint].config_dict(),
                outcome.to_json_dict(),
            )
            cells_computed += 1
    finally:
        if pool is not None:
            pool.stop()

    remaining = _prune_pending(pending_path, store)
    return DrainReport(
        requested=len(records),
        already_cached=already_cached,
        deduplicated=duplicates,
        captures_computed=captures_computed,
        cells_computed=cells_computed,
        pending_remaining=remaining,
    )


def _read_pending(path: Path) -> List[Dict[str, Any]]:
    """Parse and fingerprint-verify every pending-cells line."""
    if not path.exists():
        return []
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{number}: pending line is not valid JSON ({exc})"
            ) from None
        if not isinstance(record, dict) or not all(
            key in record for key in ("cell_key", "fingerprint", "config")
        ):
            raise ConfigurationError(
                f"{path}:{number}: pending line needs cell_key, fingerprint "
                f"and config fields"
            )
        verify_fingerprint(
            str(record["cell_key"]), record["config"], str(record["fingerprint"])
        )
        records.append(record)
    return records


def _prune_pending(path: Path, store: ResultsStore) -> int:
    """Drop pending lines whose cells reached the store; count the leftovers."""
    if not path.exists():
        return 0
    kept: List[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
            fingerprint = str(record["fingerprint"])
        except (json.JSONDecodeError, KeyError, TypeError):
            kept.append(line)
            continue
        if store.get(fingerprint) is None:
            kept.append(line)
    if kept:
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    else:
        path.unlink()
    return len(kept)


__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_POLL_INTERVAL",
    "QUEUE_DIRNAME",
    "QUEUE_SCHEMA_VERSION",
    "DrainReport",
    "LocalWorkerPool",
    "QueueBackend",
    "WorkQueue",
    "default_worker_id",
    "drain_pending",
    "entry_from_task",
    "merge_outcomes",
    "run_worker",
]
