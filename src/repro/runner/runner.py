"""The sweep runner: cache partitioning, capture resolution, accounting.

:class:`SweepRunner` executes a grid of :class:`~repro.runner.cells.SweepCell`
objects, delegating *how* cache misses run to a pluggable
:class:`~repro.runner.backends.base.ExecutionBackend` — ``serial`` (inline,
zero pool overhead) or ``process`` (a process pool over local workers) —
and streaming every computed result into an optional
:class:`~repro.runner.store.ResultsStore` so that repeated sweeps skip the
simulation entirely.  Two-level cells (a shared gateway capture feeding
per-scenario children, :mod:`repro.runner.capture`) are resolved in a first
pass: each distinct capture fingerprint is served from the store or
simulated once, then handed to the backend with the child cells, and the
backend decides how it reaches their workers.

Guarantees:

* **Determinism** — a cell is a pure function of its configuration (per-cell
  seeding via :class:`repro.sim.random.RandomStreams`), so the same grid and
  seeds produce bit-identical results on any backend at any ``jobs`` count,
  warm or cold.
* **Loud failure** — a cell that keeps failing aborts the sweep with a
  :class:`~repro.exceptions.SweepError` naming the cell and carrying the
  worker traceback; so does a pool worker that dies, rather than leaving
  the sweep to hang.
* **Bounded retries** — ``retries=N`` re-runs a failing cell up to ``N``
  extra times before aborting.
* **Single-writer cache** — only the parent process appends to the store, so
  workers never contend for the results file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ConfigurationError, SweepError
from repro.runner.backends import create_backend
from repro.runner.backends.base import Task, TaskFailure
from repro.runner.capture import CaptureResult, CaptureSpec, run_capture
from repro.runner.cells import CellResult, SweepCell, run_cell
from repro.runner.store import ResultsStore


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call.

    ``hits`` counts cells served from the persistent store, ``misses`` cells
    actually simulated, and ``deduplicated`` cells that shared a fingerprint
    with another cell in the same sweep and rode along with its result.
    ``capture_hits`` / ``captures_simulated`` account the shared gateway
    captures of two-level cells the same way.
    """

    results: Dict[str, CellResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    deduplicated: int = 0
    capture_hits: int = 0
    captures_simulated: int = 0
    elapsed_seconds: float = 0.0

    def __getitem__(self, key: str) -> CellResult:
        return self.results[key]

    def summary(self) -> str:
        """One line of cache accounting, e.g. ``"6 cells, 2 simulated, 4 cache hits"``."""
        line = f"{len(self.results)} cells, {self.misses} simulated, {self.hits} cache hits"
        if self.deduplicated:
            line += f", {self.deduplicated} deduplicated"
        if self.captures_simulated or self.capture_hits:
            line += (
                f", {self.captures_simulated} gateway captures simulated, "
                f"{self.capture_hits} capture cache hits"
            )
        return line


class SweepRunner:
    """Runs sweep cells through an execution backend, with caching.

    Parameters
    ----------
    jobs:
        Worker processes of the ``process`` backend.  ``1`` (the default)
        runs every cell inline in the parent process — no pool, easiest to
        debug, and the reference for the bit-identical-at-any-jobs
        guarantee.
    store:
        Optional persistent cache.  Cells whose fingerprint is already stored
        are returned from the cache without simulating.
    progress:
        Optional callable invoked with one line per completed cell.
    retries:
        Extra attempts granted to a failing cell before the sweep aborts
        with a :class:`~repro.exceptions.SweepError`.
    backend:
        Execution strategy: ``"process"`` (default, a process pool) or
        ``"serial"`` (inline fast path).
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultsStore] = None,
        progress: Optional[Callable[[str], None]] = None,
        retries: int = 0,
        backend: str = "process",
    ) -> None:
        self.jobs = jobs
        self.store = store
        self._progress = progress
        self.retries = retries
        self.backend_name = backend
        # Built eagerly so a misconfiguration (unknown backend, bad jobs or
        # retries) fails at construction, not mid-sweep.
        self._backend = create_backend(
            backend, jobs=jobs, retries=retries, progress=progress
        )
        # Accumulated across run() calls so a multi-figure sweep can print one
        # overall summary (the CLI's ``sweep summary:`` line).
        self.cells_seen = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cells_deduplicated = 0
        self.capture_hits = 0
        self.captures_simulated = 0

    # ------------------------------------------------------------------- api
    def run(self, cells: Iterable[SweepCell]) -> SweepReport:
        """Execute every cell and return their results keyed by cell key.

        Results come back in the order the cells were given, regardless of
        the order workers finish in.
        """
        start = time.perf_counter()
        cell_list = list(cells)
        seen_keys = set()
        for cell in cell_list:
            if cell.key in seen_keys:
                raise ConfigurationError(f"duplicate cell key {cell.key!r} in sweep grid")
            seen_keys.add(cell.key)

        # Partition into cache hits and pending work, de-duplicating cells
        # whose configs hash identically (they would produce the same result).
        assignments: Dict[str, str] = {}  # cell key -> fingerprint
        resolved: Dict[str, CellResult] = {}  # fingerprint -> result from store
        pending: Dict[str, SweepCell] = {}  # fingerprint -> first such cell
        for cell in cell_list:
            fingerprint = cell.fingerprint()
            assignments[cell.key] = fingerprint
            if fingerprint in resolved or fingerprint in pending:
                continue
            record = self.store.get(fingerprint) if self.store is not None else None
            if record is not None:
                resolved[fingerprint] = CellResult.from_json_dict(
                    cell.key, fingerprint, record["result"], from_cache=True
                )
                self._report(f"cell {cell.key}: cache hit")
            else:
                pending[fingerprint] = cell
        store_fingerprints = set(resolved)

        captures = self._resolve_captures(list(pending.values()))
        tasks: List[Task] = [("cell", cell) for cell in pending.values()]
        shared = {fingerprint: result for fingerprint, (result, _) in captures.items()}
        for outcome in self._backend.execute(tasks, shared):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"sweep cell {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            resolved[outcome.fingerprint] = outcome
            if self.store is not None:
                self.store.put(
                    outcome.fingerprint,
                    pending[outcome.fingerprint].config_dict(),
                    outcome.to_json_dict(),
                )
            self._report(
                f"cell {outcome.key}: simulated in {outcome.elapsed_seconds:.2f}s"
            )

        hits = misses = deduplicated = 0
        for cell in cell_list:
            fingerprint = assignments[cell.key]
            if fingerprint in store_fingerprints:
                hits += 1
            elif cell is pending.get(fingerprint):
                misses += 1
            else:
                deduplicated += 1
        run_hits = sum(1 for _, from_cache in captures.values() if from_cache)
        run_captures = sum(1 for _, from_cache in captures.values() if not from_cache)
        self.cells_seen += len(cell_list)
        self.cache_hits += hits
        self.cache_misses += misses
        self.cells_deduplicated += deduplicated
        self.capture_hits += run_hits
        self.captures_simulated += run_captures

        results = {
            cell.key: replace(resolved[assignments[cell.key]], key=cell.key)
            for cell in cell_list
        }
        return SweepReport(
            results=results,
            hits=hits,
            misses=misses,
            deduplicated=deduplicated,
            capture_hits=run_hits,
            captures_simulated=run_captures,
            elapsed_seconds=time.perf_counter() - start,
        )

    def summary(self) -> str:
        """Accumulated accounting across every sweep this runner has run."""
        line = (
            f"sweep summary: {self.cells_seen} cells, {self.cache_misses} simulated, "
            f"{self.cache_hits} cache hits"
        )
        if self.cells_deduplicated:
            line += f", {self.cells_deduplicated} deduplicated"
        if self.captures_simulated or self.capture_hits:
            line += (
                f", {self.captures_simulated} gateway captures simulated, "
                f"{self.capture_hits} capture cache hits"
            )
        return line + f", jobs={self.jobs}, backend={self.backend_name}"

    # -------------------------------------------------------------- internals
    def _resolve_captures(
        self, cells: List[SweepCell]
    ) -> Dict[str, Tuple[CaptureResult, bool]]:
        """Serve or simulate every distinct gateway capture the cells need.

        Returns fingerprint → (result, served_from_store).  Each distinct
        capture is computed at most once per sweep and persisted like a cell
        result (``kind="capture"``), so later sweeps — and other cells of
        this one — reuse it without touching the event simulator.  Captures
        are resolved *before* any cell task is dispatched, so the backend
        hands every two-level cell its capture alongside the task.
        """
        specs: Dict[str, CaptureSpec] = {}
        for cell in cells:
            if cell.capture is not None:
                specs.setdefault(cell.capture.fingerprint(), cell.capture)
        if not specs:
            return {}

        resolved: Dict[str, Tuple[CaptureResult, bool]] = {}
        to_run: List[CaptureSpec] = []
        for fingerprint, spec in specs.items():
            record = (
                self.store.get(fingerprint, kind="capture")
                if self.store is not None
                else None
            )
            if record is not None:
                resolved[fingerprint] = (
                    CaptureResult.from_json_dict(
                        spec.key, fingerprint, record["result"], from_cache=True
                    ),
                    True,
                )
                self._report(f"gateway capture {spec.key}: cache hit")
            else:
                to_run.append(spec)

        capture_tasks: List[Task] = [("capture", spec) for spec in to_run]
        for outcome in self._backend.execute(capture_tasks):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"{outcome.unit} {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            resolved[outcome.fingerprint] = (outcome, False)
            if self.store is not None:
                self.store.put(
                    outcome.fingerprint,
                    specs[outcome.fingerprint].config_dict(),
                    outcome.to_json_dict(),
                    kind="capture",
                )
            self._report(
                f"gateway capture {outcome.key}: simulated in {outcome.elapsed_seconds:.2f}s"
            )
        return resolved

    def _report(self, line: str) -> None:
        if self._progress is not None:
            self._progress(line)


# ``run_cell`` / ``run_capture`` are re-exported here on purpose: backends
# resolve them through this module's namespace at call time, which is the
# seam the fault-injection tests monkeypatch.
__all__ = ["SweepRunner", "SweepReport", "run_capture", "run_cell"]
