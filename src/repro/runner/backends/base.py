"""The execution-backend contract shared by every sweep execution strategy.

:class:`~repro.runner.runner.SweepRunner` owns *what* to run — cache
partitioning, capture resolution, accounting, the single-writer store — and
delegates *how* to run it to an :class:`ExecutionBackend`.  A backend receives
a list of tasks (cells or gateway captures) and yields exactly one terminal
outcome per task: the computed :class:`~repro.runner.cells.CellResult` /
:class:`~repro.runner.capture.CaptureResult`, or a :class:`TaskFailure`
marker naming the task that kept failing.  Outcomes may arrive in any order;
the runner re-orders results by cell key, which is what makes every backend
byte-identical at any worker count.

Two backends ship with the package:

* ``serial`` (:mod:`repro.runner.backends.serial`) — in-process, zero
  pool/pickle overhead; the fast path for warm sweeps and small grids.
* ``process`` (:mod:`repro.runner.backends.process`) — a
  :class:`~concurrent.futures.ProcessPoolExecutor` over ``jobs`` local
  worker processes.
"""

from __future__ import annotations

import os
import traceback
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError
from repro.runner.capture import CaptureResult, CaptureSpec
from repro.runner.cells import CellResult, SweepCell

if TYPE_CHECKING:
    from concurrent.futures import Future

#: A schedulable unit of work: a cell or a gateway capture.  Plain tuples
#: keep pool payloads boring and picklable.
Task = Union[
    Tuple[str, SweepCell],  # ("cell", cell)
    Tuple[str, CaptureSpec],  # ("capture", spec)
]

#: Resolved gateway captures by fingerprint: what a two-level cell's task
#: needs besides the cell itself.
Captures = Mapping[str, CaptureResult]

ProgressFn = Optional[Callable[[str], None]]


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
    unit: str = "cell"


#: What a backend yields, one per task.
TaskOutcome = Union[CellResult, CaptureResult, TaskFailure]


def task_key(task: Task) -> str:
    """The display key of a task's cell or capture spec."""
    return task[1].key


def task_unit(task: Task) -> str:
    """Human-readable unit name for progress and failure lines."""
    return "gateway capture" if task[0] == "capture" else "cell"


def execute_task(task: Task, captures: Captures) -> TaskOutcome:
    """Run one task, converting any exception to a :class:`TaskFailure`.

    The entry point every backend funnels work through — pool workers and
    the in-process serial loop alike.  A two-level cell
    takes its gateway capture from ``captures``.  ``run_cell`` and
    ``run_capture`` are resolved through :mod:`repro.runner.runner` at call
    time (not import time) so a patched ``repro.runner.runner.run_cell``
    — the seam the fault-injection tests use — is honoured by every
    backend, including fork-started workers that inherit the patch.
    """
    import repro.runner.runner as _runner

    try:
        if task[0] == "capture":
            return _runner.run_capture(task[1])
        cell = task[1]
        capture = None
        if cell.capture is not None:
            capture = captures.get(cell.capture.fingerprint())
        return _runner.run_cell(cell, capture=capture)
    except Exception as exc:
        return TaskFailure(
            key=task_key(task),
            error=f"{type(exc).__name__}: {exc}",
            worker_traceback=traceback.format_exc(),
            unit=task_unit(task),
        )


def run_with_retries(
    tasks: List[Task],
    submit: Callable[[Task], "Future[TaskOutcome]"],
    retries: int,
    progress: ProgressFn,
    window: int = 1,
) -> Iterator[TaskOutcome]:
    """The bounded-retry loop of the serial and process backends.

    Keeps at most ``window`` submitted tasks unfinished and yields each
    terminal outcome as its future completes.  A task whose outcome is a
    :class:`TaskFailure` goes to the back of the line until it has had
    ``retries + 1`` attempts.  A future that raises
    :class:`~concurrent.futures.BrokenExecutor` means a pool worker died
    (OOM killer, SIGKILL): the pool cannot run anything more, so that task,
    and every task submitted after it, yields its failure at once rather
    than being retried.
    """
    # Imported here, not at module level, to keep ``concurrent.futures``
    # (~7 ms) out of the CLI's start-up.
    from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait

    def worker_died(task: Task, exc: BaseException) -> TaskFailure:
        # The pool does not say which task's worker died: name every task it
        # still held.
        held = [task] + [other for other, _ in running.values()]
        return TaskFailure(
            key=task_key(task),
            error=(
                f"a pool worker died while the pool held "
                f"{', '.join(task_key(t) for t in held)} ({exc})"
            ),
            worker_traceback="(none: the worker process exited abruptly)",
            unit=task_unit(task),
        )

    max_attempts = retries + 1
    waiting = deque((task, 1) for task in tasks)
    running: Dict["Future[TaskOutcome]", Tuple[Task, int]] = {}
    while waiting or running:
        while waiting and len(running) < window:
            task, attempt = waiting.popleft()
            try:
                running[submit(task)] = (task, attempt)
            except BrokenExecutor as exc:
                # A broken pool refuses new work at submission time.
                yield worker_died(task, exc)
        if not running:
            continue
        done, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in done:
            task, attempt = running.pop(future)
            try:
                outcome = future.result()
            except BrokenExecutor as exc:
                yield worker_died(task, exc)
                continue
            if isinstance(outcome, TaskFailure) and attempt < max_attempts:
                if progress is not None:
                    progress(
                        f"{outcome.unit} {outcome.key}: failed, retrying "
                        f"(attempt {attempt + 1}/{max_attempts})"
                    )
                waiting.append((task, attempt + 1))
            else:
                yield outcome


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


class ExecutionBackend(ABC):
    """How a list of sweep tasks gets executed.

    The contract:

    * :meth:`execute` yields exactly one terminal outcome per task, in any
      order.  A task that keeps failing yields a :class:`TaskFailure` rather
      than raising, so the caller can name the cell in its error.
    * Task execution goes through :func:`execute_task`: cells and captures
      are pure functions of their configuration, so *where* they run never
      changes the numbers — the determinism contract every backend inherits.
    * Backends never write the results store; the parent process is the
      single writer.
    """

    #: CLI name of the backend (``--backend <name>``).
    name: ClassVar[str] = "abstract"

    @abstractmethod
    def execute(
        self, tasks: List[Task], captures: Optional[Captures] = None
    ) -> Iterator[TaskOutcome]:
        """Run every task, yielding one terminal outcome per task.

        ``captures`` holds the resolved gateway captures the tasks' two-level
        cells reference; each backend decides how they reach its workers.
        """


def validate_retries(retries: int) -> int:
    if retries < 0:
        raise ConfigurationError(f"retries={retries!r} must be >= 0")
    return retries


__all__ = [
    "Captures",
    "ExecutionBackend",
    "ProgressFn",
    "Task",
    "TaskFailure",
    "TaskOutcome",
    "available_cpu_count",
    "execute_task",
    "resolve_jobs",
    "run_with_retries",
    "task_key",
    "task_unit",
    "validate_retries",
]
