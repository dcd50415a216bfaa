"""How the sweep runner executes its stream of tasks: inline or on a pool.

:class:`~repro.runner.runner.SweepRunner` owns *what* to run — cache
partitioning, capture resolution, accounting, the single-writer store — and
hands the cells it must simulate to :func:`execute`.  A task is
``(cell, capture)``: a :class:`~repro.runner.cells.SweepCell` and, for a
two-level cell, its resolved gateway capture (``None`` otherwise), so
whatever runs the task needs nothing else, and the capture lives only as
long as some task or the runner still refers to it.

:func:`execute` yields exactly one outcome per task: the computed
:class:`~repro.runner.cells.CellResult`, or a :class:`TaskFailure` naming
the cell.  Outcomes may arrive in any order; the runner re-orders results
by cell key, which is what makes every worker count byte-identical.

* **Inline** when one worker, or one task, remains: every task runs in this
  process, one at a time, in stream order — no pool, no pickling, no worker
  start-up.  This is the reference the pool is tested against.
* **Pool** otherwise: a :class:`~concurrent.futures.ProcessPoolExecutor`
  over ``min(workers, tasks)`` processes, at most one task in flight per
  worker.  A capture is pickled with each task that needs it, under
  ``fork`` and ``spawn`` alike.  A worker that dies (OOM killer, SIGKILL)
  breaks the pool, and the tasks it held yield a failure saying a pool
  worker died: the sweep aborts instead of waiting for a result that will
  never come.  Re-running the sweep computes only what the store still
  lacks.

Both pull a task from the stream only when they have room to run it, which
is what lets the runner resolve each capture just before its first child.
"""

from __future__ import annotations

import os
import sys
import traceback
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.runner.capture import CaptureResult
from repro.runner.cells import CellResult, SweepCell

if TYPE_CHECKING:
    from concurrent.futures import Future

#: A schedulable unit of work: a cell and its resolved gateway capture, if
#: any.  A plain tuple keeps pool payloads boring and picklable.
Task = Tuple[SweepCell, Optional[CaptureResult]]


@dataclass(frozen=True)
class TaskFailure:
    """Picklable failure marker returned by a worker instead of raising.

    Raising inside a pool would surface the exception without the cell
    identity (and an unpicklable exception would deadlock the pool), so
    workers catch everything and let the parent raise a
    :class:`~repro.exceptions.SweepError`.
    """

    key: str
    error: str
    worker_traceback: str


#: What :func:`execute` yields, one per task.
TaskOutcome = Union[CellResult, TaskFailure]


def execute_task(task: Task) -> TaskOutcome:
    """Run one task, converting any exception to a :class:`TaskFailure`.

    The entry point of pool workers and of the inline loop alike.
    ``run_cell`` is resolved through :mod:`repro.runner.runner` at call time
    (not import time) so a patched ``repro.runner.runner.run_cell`` — the
    seam the fault-injection tests use — is honoured inline and in
    fork-started workers that inherit the patch.
    """
    import repro.runner.runner as _runner

    cell, capture = task
    try:
        return _runner.run_cell(cell, capture=capture)
    except Exception as exc:
        return TaskFailure(
            key=cell.key,
            error=f"{type(exc).__name__}: {exc}",
            worker_traceback=traceback.format_exc(),
        )


def execute(tasks: Iterable[Task], workers: int) -> Iterator[TaskOutcome]:
    """Run every task, yielding one outcome per task as it completes.

    ``tasks`` may be a lazy stream; it is pulled no further ahead than
    ``workers`` tasks are running.  A future that raises
    :class:`~concurrent.futures.BrokenExecutor` means a pool worker died:
    the pool cannot run anything more, so that task, and every task
    submitted after it, yields its failure at once.
    """
    rest = iter(tasks)
    # Peek at most ``workers`` tasks to size the pool: min(workers, task count).
    head = deque(islice(rest, workers)) if workers > 1 else deque()

    def stream() -> Iterator[Task]:
        # Popped, not iterated: a peeked task is not kept alive past its turn.
        while head:
            yield head.popleft()
        yield from rest

    if len(head) <= 1:
        for task in stream():
            outcome = execute_task(task)
            # Dropped before the yield: once the runner has a capture's last
            # outcome, nothing here holds that capture any more.
            del task
            yield outcome
        return

    # Imported on first use: the pool modules cost start-up time that
    # inline and cached runs never need back.
    import multiprocessing
    from concurrent.futures import (
        FIRST_COMPLETED,
        BrokenExecutor,
        ProcessPoolExecutor,
        wait,
    )

    window = len(head)
    pending = stream()
    running: Dict["Future[TaskOutcome]", Task] = {}

    def worker_died(task: Task, exc: BaseException) -> TaskFailure:
        # The pool does not say which task's worker died: name every task it
        # still held.
        held = [task[0].key] + [other[0].key for other in running.values()]
        return TaskFailure(
            key=task[0].key,
            error=f"a pool worker died while the pool held {', '.join(held)} ({exc})",
            worker_traceback="(none: the worker process exited abruptly)",
        )

    def fill() -> Iterator[TaskFailure]:
        while len(running) < window:
            task = next(pending, None)
            if task is None:
                return
            try:
                running[pool.submit(execute_task, task)] = task
            except BrokenExecutor as exc:
                # A broken pool refuses new work at submission time.
                yield worker_died(task, exc)

    def reap() -> Iterator[TaskOutcome]:
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in done:
            task = running.pop(future)
            try:
                outcome = future.result()
            except BrokenExecutor as exc:
                outcome = worker_died(task, exc)
            yield outcome

    with ProcessPoolExecutor(
        window, multiprocessing.get_context(default_mp_context())
    ) as pool:
        # Each phase keeps its tasks in its own frame, which is gone before
        # the next pull from the stream: a finished task's capture is
        # already freed when the stream resolves the next one.
        while True:
            yield from fill()
            if not running:
                return
            yield from reap()


def default_mp_context() -> str:
    """The trusted multiprocessing start method for this platform.

    ``fork`` is only trusted on Linux; macOS lists it as available but
    forking a parent with initialized BLAS/ObjC state is unsafe (CPython
    itself switched the macOS default to spawn in 3.8).
    """
    return "fork" if sys.platform == "linux" else "spawn"


def available_cpu_count() -> int:
    """CPUs actually available to this process, honouring affinity masks.

    ``os.cpu_count()`` reports the machine's CPUs regardless of how few the
    scheduler lets this process use — in a containerised CI runner pinned to
    one core it happily claims 16, and a ``--jobs auto`` sized from it would
    oversubscribe the pool.  Prefer ``os.process_cpu_count()`` (Python
    3.13+), then the Linux affinity mask, then fall back to the raw count.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return int(count)
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = os.sched_getaffinity(0)
        except OSError:  # pragma: no cover - affinity query denied
            affinity = None
        if affinity:
            return len(affinity)
    return os.cpu_count() or 1


def resolve_jobs(jobs: Union[int, str]) -> int:
    """Normalise a ``--jobs`` value: ``"auto"`` means the available CPUs."""
    if jobs == "auto":
        return available_cpu_count()
    try:
        return int(jobs)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"jobs={jobs!r} must be a positive integer or 'auto'"
        ) from None


__all__ = [
    "Task",
    "TaskFailure",
    "TaskOutcome",
    "available_cpu_count",
    "default_mp_context",
    "execute",
    "execute_task",
    "resolve_jobs",
]
