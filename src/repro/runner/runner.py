"""The sweep runner: cache partitioning, capture resolution, accounting.

:class:`SweepRunner` executes a grid of :class:`~repro.runner.cells.SweepCell`
objects, running the cache misses through
:func:`~repro.runner.execute.execute` — inline in this process, or on a
process pool over local workers — and streaming every computed result into
an optional :class:`~repro.runner.store.ResultsStore` so that repeated
sweeps skip the simulation entirely.  Two-level cells (a shared gateway
capture feeding per-scenario children, :mod:`repro.runner.capture`) give
each capture a lifetime: the executor pulls cell tasks from a lazy stream in
grid order, the runner simulates a capture when the stream reaches its first
pending child, every child's task carries the capture to wherever it runs,
and the runner drops its reference once the capture's last child has an
outcome.  Captures are never stored: only cell results are.  When a
capture's children are contiguous in the grid, as every registered
experiment's are, an inline run holds one capture at a time.

Guarantees:

* **Determinism** — a cell is a pure function of its configuration (per-cell
  seeding via :class:`repro.sim.random.RandomStreams`), so the same grid and
  seeds produce bit-identical results on any backend at any ``jobs`` count,
  warm or cold.
* **Loud failure** — a cell or capture that fails aborts the sweep with a
  :class:`~repro.exceptions.SweepError` naming it and carrying the worker
  traceback; so does a pool worker that dies, rather than leaving the sweep
  to hang.
* **Single-writer cache** — only the parent process appends to the store, so
  workers never contend for the results file.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, Optional

from repro.defaults import BACKEND_NAMES
from repro.exceptions import ConfigurationError, SweepError
from repro.runner.capture import CaptureResult, CaptureSpec, run_capture
from repro.runner.cells import CellResult, SweepCell, run_cell
from repro.runner.execute import Task, TaskFailure, execute
from repro.runner.store import ResultsStore


def _accounting(
    cells: int, simulated: int, hits: int, deduplicated: int, captures_simulated: int
) -> str:
    """The cache-accounting counts of one sweep, or of every sweep a runner ran."""
    line = f"{cells} cells, {simulated} simulated, {hits} cache hits"
    if deduplicated:
        line += f", {deduplicated} deduplicated"
    if captures_simulated:
        line += f", {captures_simulated} gateway captures simulated"
    return line


@dataclass
class SweepReport:
    """Outcome of one :meth:`SweepRunner.run` call.

    ``hits`` counts cells served from the persistent store, ``misses`` cells
    actually simulated, and ``deduplicated`` cells that shared a fingerprint
    with another cell in the same sweep and rode along with its result.
    ``captures_simulated`` counts the shared gateway captures of two-level
    cells, one per distinct capture with a pending child.
    """

    results: Dict[str, CellResult] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    deduplicated: int = 0
    captures_simulated: int = 0
    elapsed_seconds: float = 0.0

    def __getitem__(self, key: str) -> CellResult:
        return self.results[key]

    def summary(self) -> str:
        """One line of cache accounting, e.g. ``"6 cells, 2 simulated, 4 cache hits"``."""
        return _accounting(
            len(self.results),
            self.misses,
            self.hits,
            self.deduplicated,
            self.captures_simulated,
        )


class SweepRunner:
    """Runs sweep cells inline or on a process pool, with caching.

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
    backend:
        ``"process"`` (default) runs cells on ``jobs`` pool workers;
        ``"serial"`` runs every cell inline whatever ``jobs`` says.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultsStore] = None,
        progress: Optional[Callable[[str], None]] = None,
        backend: str = "process",
    ) -> None:
        # Checked here, for every backend, so a misconfiguration fails at
        # construction, not mid-sweep.
        if backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"backend={backend!r} must be one of {', '.join(BACKEND_NAMES)}"
            )
        if jobs < 1:
            raise ConfigurationError(f"jobs={jobs!r} must be >= 1")
        self.jobs = jobs
        self.store = store
        self._progress = progress
        self.backend_name = backend
        # Accumulated across run() calls so a multi-figure sweep can print one
        # overall summary (the CLI's ``sweep summary:`` line).
        self.cells_seen = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cells_deduplicated = 0
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

        # Each capture lives from its first pending child's pull to its last
        # pending child's terminal outcome.
        children_left: Dict[str, int] = {}  # capture fingerprint -> cells to go
        for cell in pending.values():
            if cell.capture is not None:
                fingerprint = cell.capture.fingerprint()
                children_left[fingerprint] = children_left.get(fingerprint, 0) + 1
        live: Dict[str, CaptureResult] = {}

        def tasks() -> Iterator[Task]:
            for cell in pending.values():
                if cell.capture is None:
                    yield cell, None
                    continue
                fingerprint = cell.capture.fingerprint()
                if fingerprint not in live:
                    live[fingerprint] = self._resolve_capture(cell.capture)
                yield cell, live[fingerprint]

        workers = 1 if self.backend_name == "serial" else self.jobs
        for outcome in execute(tasks(), workers):
            if isinstance(outcome, TaskFailure):
                raise SweepError(
                    f"sweep cell {outcome.key!r} failed: {outcome.error}\n"
                    f"--- worker traceback ---\n{outcome.worker_traceback}"
                )
            resolved[outcome.fingerprint] = outcome
            cell = pending[outcome.fingerprint]
            if self.store is not None:
                self.store.put(
                    outcome.fingerprint, cell.config_dict(), outcome.to_json_dict()
                )
            self._report(
                f"cell {outcome.key}: simulated in {outcome.elapsed_seconds:.2f}s"
            )
            if cell.capture is not None:
                fingerprint = cell.capture.fingerprint()
                children_left[fingerprint] -= 1
                if not children_left[fingerprint]:
                    del live[fingerprint]

        hits = misses = deduplicated = 0
        for cell in cell_list:
            fingerprint = assignments[cell.key]
            if fingerprint in store_fingerprints:
                hits += 1
            elif cell is pending.get(fingerprint):
                misses += 1
            else:
                deduplicated += 1
        run_captures = len(children_left)  # each simulated once, at its first child
        self.cells_seen += len(cell_list)
        self.cache_hits += hits
        self.cache_misses += misses
        self.cells_deduplicated += deduplicated
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
            captures_simulated=run_captures,
            elapsed_seconds=time.perf_counter() - start,
        )

    def summary(self) -> str:
        """Accumulated accounting across every sweep this runner has run."""
        counts = _accounting(
            self.cells_seen,
            self.cache_misses,
            self.cache_hits,
            self.cells_deduplicated,
            self.captures_simulated,
        )
        return f"sweep summary: {counts}, jobs={self.jobs}, backend={self.backend_name}"

    # -------------------------------------------------------------- internals
    def _resolve_capture(self, spec: CaptureSpec) -> CaptureResult:
        """Simulate a gateway capture inline; a failure aborts the sweep naming it."""
        try:
            outcome = run_capture(spec)
        except Exception as exc:
            raise SweepError(
                f"gateway capture {spec.key!r} failed: {type(exc).__name__}: {exc}\n"
                f"--- worker traceback ---\n{traceback.format_exc()}"
            ) from None
        self._report(
            f"gateway capture {outcome.key}: simulated in {outcome.elapsed_seconds:.2f}s"
        )
        return outcome

    def _report(self, line: str) -> None:
        if self._progress is not None:
            self._progress(line)


# ``run_cell`` / ``run_capture`` are re-exported here on purpose: the
# executor and the runner resolve them through this module's namespace at
# call time, which is the seam the fault-injection tests monkeypatch.
__all__ = ["SweepRunner", "SweepReport", "run_capture", "run_cell"]
