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
store's single-writer contract is preserved end to end.  Each shard record
carries its entry's config, so any merging process — not only the parent
that enqueued the entry — can store it (``repro queue drain``).  Results are
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
from typing import AbstractSet, Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.exceptions import ConfigurationError, SweepError
from repro.runner.backends.base import (
    Captures,
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
from repro.runner.capture import CaptureResult
from repro.runner.cells import CellResult
from repro.runner.defaults import DEFAULT_LEASE_TIMEOUT, DEFAULT_POLL_INTERVAL
from repro.runner.store import _FINGERPRINT_RE, ResultsStore

#: Version of the queue entry / result-shard record layout.
QUEUE_SCHEMA_VERSION = 1

#: Directory name of the queue, under the results-store root.
QUEUE_DIRNAME = "queue"

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
    def enqueue(self, entry: Dict[str, Any], retry: bool = False) -> bool:
        """Stage and atomically publish one entry; False if already active.

        A ``retry`` is published even while its fingerprint is active,
        replacing a queued copy: a worker appends its failure record before
        it unlinks the failed attempt's lease, so a merge may read the one
        before the other, and a drain may renumber a queued entry.
        """
        fingerprint = str(entry.get("fingerprint", ""))
        if _FINGERPRINT_RE.fullmatch(fingerprint) is None:
            raise ConfigurationError(
                f"queue entry fingerprint {fingerprint!r} is not a safe "
                f"hash-like token"
            )
        self.ensure()
        if not retry and self.is_active(fingerprint):
            return False
        # pid *and* thread id: threads of one process (the HTTP server's
        # handlers) may stage the same fingerprint at once.
        staging = (
            self.tmp_dir / f"{fingerprint}.{os.getpid()}.{threading.get_ident()}.json"
        )
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
    def claim(self, worker_id: str, skip: AbstractSet[str] = frozenset()) -> Optional[Path]:
        """Atomically claim the first queued entry not in ``skip``.

        ``skip`` holds fingerprints the caller released and does not want
        back yet; None when no other entry is queued.
        """
        self.ensure()
        for path in sorted(self.queued_dir.glob("*.json")):
            if path.stem in skip:
                continue
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

    def read_new_records(
        self, offsets: Dict[str, int]
    ) -> Iterator[Tuple[Path, Dict[str, Any]]]:
        """Yield ``(shard, record)`` pairs not seen before, advancing ``offsets``.

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
                    yield shard, record

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
    captures: Dict[str, CaptureResult] = {}
    try:
        verify_fingerprint(str(entry["key"]), entry["config"], str(entry["fingerprint"]))
        if entry.get("unit") == "capture":
            spec = capture_from_config(entry["key"], entry["config"])
            task: Task = ("capture", spec)
        else:
            cell = cell_from_config(entry["key"], entry["config"])
            task = ("cell", cell)
            if cell.capture is not None:
                capture_fp = cell.capture.fingerprint()
                record = store.get(capture_fp, kind="capture")
                if record is None:
                    return ("wait",)
                captures[capture_fp] = CaptureResult.from_json_dict(
                    cell.capture.key, capture_fp, record["result"]
                )
    except Exception as exc:
        return ("failed", f"{type(exc).__name__}: {exc}", traceback.format_exc())
    outcome = execute_task(task, captures)
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
    # Entries released since the last executed one (a cell waiting for its
    # capture): skipped by claim, so the capture behind them is reachable.
    released: Set[str] = set()
    with _Heartbeat(queue, wid, interval=beat_interval):
        idle_since = time.monotonic()
        while max_tasks is None or executed < max_tasks:
            lease = queue.claim(wid, skip=released)
            if lease is None:
                lease = queue.steal(wid, lease_timeout)
            if lease is None:
                # Nothing runnable: idle, then give the released entries
                # another try (their captures may have been stored since).
                released.clear()
                if max_idle is not None and time.monotonic() - idle_since >= max_idle:
                    break
                time.sleep(poll_interval)
                continue
            if _work_one_lease(store, queue, wid, lease, progress):
                executed += 1
                idle_since = time.monotonic()
                released.clear()
            else:
                released.add(lease.name.partition(".")[0])
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
        "config": entry.get("config"),
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
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    ) -> None:
        context = multiprocessing.get_context(default_mp_context())
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
    :class:`~repro.runner.backends.base.TaskFailure` once a unit has failed
    ``retries + 1`` times in this merge (each accepted failure re-enqueues the entry with
    an incremented attempt counter; failure records from superseded attempts
    — e.g. a stolen cell whose original owner also reported — are ignored).
    Leases of stale workers are requeued as a backstop even when no worker
    is alive to steal them.
    """
    pending = dict(entries)
    attempts = {fingerprint: entry.get("attempt", 1) for fingerprint, entry in pending.items()}
    # Each entry gets ``retries`` more attempts than the one it arrives at.
    retries = validate_retries(retries)
    last_attempt = {fingerprint: attempt + retries for fingerprint, attempt in attempts.items()}
    offsets: Dict[str, int] = {}
    deadline = (
        time.monotonic() + wait_timeout if wait_timeout is not None else None
    )
    while pending:
        progressed = False
        for _, record in queue.read_new_records(offsets):
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
                if attempts[fingerprint] < last_attempt[fingerprint]:
                    attempts[fingerprint] += 1
                    if progress is not None:
                        progress(
                            f"{unit} {entry['key']}: failed, retrying "
                            f"(attempt {attempts[fingerprint]}/{last_attempt[fingerprint]})"
                        )
                    retry_entry = dict(entry)
                    retry_entry["attempt"] = attempts[fingerprint]
                    pending[fingerprint] = retry_entry
                    queue.enqueue(retry_entry, retry=True)
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
        self._progress = progress

    def execute(
        self, tasks: List[Task], captures: Optional[Captures] = None
    ) -> Iterator[TaskOutcome]:
        # ``captures`` is not needed here: the runner stores every capture
        # before its cells are enqueued, and workers read it from the store.
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
#: The backlog file ``POST /enqueue`` wrote before it enqueued directly.
_LEGACY_BACKLOG = "pending_cells.jsonl"


@dataclass(frozen=True)
class DrainReport:
    """Outcome of one ``repro queue drain`` run."""

    outstanding: int
    already_cached: int
    captures_computed: int
    cells_computed: int

    def __str__(self) -> str:
        return (
            f"{self.outstanding} outstanding entr(ies): {self.cells_computed} "
            f"cells computed ({self.captures_computed} gateway captures), "
            f"{self.already_cached} already cached"
        )


def drain_queue(
    store_root: Union[str, Path],
    workers: int = 0,
    retries: int = 0,
    timeout: Optional[float] = None,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    progress: ProgressFn = None,
) -> DrainReport:
    """Merge every unit the queue owes into the store.

    Outstanding units are the entries in ``queued/`` and ``leased/`` plus
    ``ok`` shard records whose results never reached the store (their
    parent stopped before merging them); owed work the queue no longer
    holds is put back on it (see :func:`_outstanding_entries`).  Every file
    is fingerprint-verified before any work — a tampered or unparsable one
    is refused naming it — then one merge loop stores each outcome as it arrives, so a gateway
    capture reaches the store while the cells that consume it wait in the
    queue.  With ``workers > 0`` local worker processes are spawned for the
    duration; with ``workers == 0`` the call relies on externally running
    ``repro worker`` processes (pass ``timeout`` so an empty fleet fails
    loudly instead of blocking forever).
    """
    store = ResultsStore(store_root)
    legacy = store.root / _LEGACY_BACKLOG
    if legacy.exists():
        raise ConfigurationError(
            f"{str(legacy)!r} is a backlog file from an earlier release, which "
            f"this drain does not read; POST its lines to /enqueue as "
            f'{{"cells": [...]}} (or drain it with that release), then delete it'
        )
    queue = WorkQueue(store.root)
    entries, already_cached = _outstanding_entries(queue, store)
    pool = None
    if workers > 0 and entries:
        pool = LocalWorkerPool(
            store.root,
            workers,
            poll_interval=poll_interval,
            lease_timeout=lease_timeout,
        )
    captures_computed = cells_computed = 0
    try:
        for outcome in merge_outcomes(
            queue,
            entries,
            retries=retries,
            progress=progress,
            poll_interval=poll_interval,
            lease_timeout=lease_timeout,
            wait_timeout=timeout,
        ):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"{outcome.unit} {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            entry = entries[outcome.fingerprint]
            store.put(
                outcome.fingerprint,
                entry["config"],
                outcome.to_json_dict(),
                kind=entry["unit"],
            )
            if entry["unit"] == "capture":
                captures_computed += 1
            else:
                cells_computed += 1
    finally:
        if pool is not None:
            pool.stop()
    return DrainReport(
        outstanding=len(entries),
        already_cached=already_cached,
        captures_computed=captures_computed,
        cells_computed=cells_computed,
    )


def _outstanding_entries(
    queue: WorkQueue, store: ResultsStore
) -> Tuple[Dict[str, Dict[str, Any]], int]:
    """Fingerprint → verified entry for every unit not yet in the store.

    Scans in the order a unit moves — ``queued/``, ``leased/``, then the
    result shards — so a unit a live worker is moving along is seen at
    least once.  Queued entries already stored are discarded and counted.
    Two kinds of owed work the queue no longer holds are published again,
    after every file has been verified: a unit whose records are all
    failures (no merge was running to retry it, or an earlier drain gave
    up on it), and the unstored gateway capture of an outstanding cell.
    A republished or queued unit is numbered one attempt above its newest
    failure, so the merge reads those records as superseded.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    queued: Set[str] = set()
    already_cached = 0
    for directory in (queue.queued_dir, queue.leased_dir):
        # Listed only after the previous stage was read, so an entry that
        # moved on in between is found at its next stop.
        for path in sorted(directory.glob("*.json")) if directory.is_dir() else []:
            try:
                text = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                continue  # claimed or finished since the listing
            try:
                entry = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}: queue entry is not valid JSON ({exc})"
                ) from None
            entry = _verified_entry(path, entry)
            fingerprint = entry["fingerprint"]
            if store.has(fingerprint, kind=entry["unit"]):
                already_cached += 1
                queue.discard_queued(fingerprint)
                continue
            entries.setdefault(fingerprint, entry)
            if directory == queue.queued_dir:
                queued.add(fingerprint)
    failures: Dict[str, Tuple[Path, Dict[str, Any]]] = {}
    done: Set[str] = set()  # fingerprints with an ``ok`` record
    for shard, record in queue.read_new_records({}):
        fingerprint = str(record.get("fingerprint"))
        # A record without a config predates that field and cannot be stored.
        if "config" not in record:
            continue
        if record.get("status") == "failed":
            newest = failures.get(fingerprint)
            if newest is None or _attempt(shard, record) > _attempt(*newest):
                failures[fingerprint] = (shard, record)
            continue
        if record.get("status") != "ok":
            continue
        done.add(fingerprint)
        if fingerprint in entries:
            continue
        if store.has(fingerprint, kind=str(record.get("unit"))):
            continue
        entries[fingerprint] = _queue_entry(_verified_entry(shard, record))

    def next_attempt(fingerprint: str) -> int:
        newest = failures.get(fingerprint)
        return 1 if newest is None else _attempt(*newest) + 1

    republish: List[Dict[str, Any]] = []
    for fingerprint, (shard, record) in sorted(failures.items()):
        if fingerprint in done:
            continue  # an attempt succeeded; the merge reads its record
        if fingerprint in entries:
            # A leased entry's failure may be the attempt in flight; a
            # queued one that old would lose its next failure to the past.
            entry = entries[fingerprint]
            if fingerprint in queued and entry["attempt"] < next_attempt(fingerprint):
                entries[fingerprint] = dict(entry, attempt=next_attempt(fingerprint))
                republish.append(entries[fingerprint])
            continue
        if store.has(fingerprint, kind=str(record.get("unit"))):
            continue
        entry = _queue_entry(_verified_entry(shard, record))
        entries[fingerprint] = dict(entry, attempt=next_attempt(fingerprint))
        republish.append(entries[fingerprint])
    for fingerprint, entry in sorted(entries.items()):
        if entry["unit"] != "cell" or "capture" not in entry["config"]:
            continue
        try:
            capture = cell_from_config(entry["key"], entry["config"]).capture
        except ConfigurationError as exc:
            raise ConfigurationError(f"queue entry {fingerprint}: {exc}") from None
        assert capture is not None
        capture_fp = capture.fingerprint()
        if capture_fp in entries or store.has(capture_fp, kind="capture"):
            continue
        entries[capture_fp] = entry_from_task(
            ("capture", capture), attempt=next_attempt(capture_fp)
        )
        republish.append(entries[capture_fp])
    for entry in republish:
        queue.enqueue(entry, retry=True)
    return entries, already_cached


def _attempt(path: Path, record: Dict[str, Any]) -> int:
    attempt = record.get("attempt", 1)
    if not isinstance(attempt, int) or attempt < 1:
        raise ConfigurationError(f"{path}: queue entry attempt {attempt!r} is not >= 1")
    return attempt


def _queue_entry(record: Dict[str, Any]) -> Dict[str, Any]:
    """The queue entry a verified shard record was produced from."""
    return dict(
        {name: record[name] for name in ("unit", "key", "fingerprint", "config", "attempt")},
        schema=QUEUE_SCHEMA_VERSION,
    )


def _verified_entry(path: Path, entry: Any) -> Dict[str, Any]:
    """``entry`` if its fingerprint hashes from its config, else refuse ``path``."""
    if not isinstance(entry, dict) or not all(
        name in entry for name in ("unit", "key", "fingerprint", "config")
    ):
        raise ConfigurationError(
            f"{path}: queue entry needs unit, key, fingerprint and config fields"
        )
    if entry["unit"] not in ("cell", "capture"):
        raise ConfigurationError(
            f"{path}: queue entry unit {entry['unit']!r} is not 'cell' or 'capture'"
        )
    attempt = _attempt(path, entry)
    try:
        verify_fingerprint(str(entry["key"]), entry["config"], str(entry["fingerprint"]))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return dict(entry, attempt=attempt)


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
    "drain_queue",
    "entry_from_task",
    "merge_outcomes",
    "run_worker",
]
