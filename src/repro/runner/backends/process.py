"""The process backend: a :class:`~concurrent.futures.ProcessPoolExecutor`.

* ``min(jobs, len(tasks))`` worker processes, at most one task in flight per
  worker, outcomes yielded as they complete;
* a failing task retries up to ``retries`` extra times before its
  :class:`~repro.runner.backends.base.TaskFailure` is yielded — the same
  loop (:func:`~repro.runner.backends.base.run_with_retries`) the serial
  backend runs;
* a worker that dies (OOM killer, SIGKILL) breaks the pool, and the tasks
  it held yield a failure saying a pool worker died: the sweep aborts
  instead of waiting for a result that will never come.  Re-running the
  sweep computes only what the store still lacks.

A two-level cell's gateway capture reaches its worker inside the task, so
it is pickled with each task that needs it, under ``fork`` and ``spawn``
alike, and a worker holds it only while it runs that task.  One pool serves
the whole stream of tasks.

When there is nothing to parallelise (``jobs == 1`` or a single task), the
backend runs the serial loop instead of paying for a one-worker pool.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial
from itertools import islice
from typing import Iterable, Iterator

from repro.exceptions import ConfigurationError
from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    Task,
    TaskOutcome,
    execute_task,
    run_with_retries,
    validate_retries,
)
from repro.runner.backends.serial import SerialBackend


def default_mp_context() -> str:
    """The trusted multiprocessing start method for this platform.

    ``fork`` is only trusted on Linux; macOS lists it as available but
    forking a parent with initialized BLAS/ObjC state is unsafe (CPython
    itself switched the macOS default to spawn in 3.8).
    """
    return "fork" if sys.platform == "linux" else "spawn"


class ProcessBackend(ExecutionBackend):
    """Pool-based execution with bounded retries."""

    name = "process"

    def __init__(
        self, jobs: int = 1, retries: int = 0, progress: ProgressFn = None
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs={jobs!r} must be >= 1")
        self.jobs = jobs
        self.retries = validate_retries(retries)
        self._progress = progress

    def execute(self, tasks: Iterable[Task]) -> Iterator[TaskOutcome]:
        rest = iter(tasks)
        # Peek at most ``jobs`` tasks to size the pool: min(jobs, task count).
        head = deque(islice(rest, self.jobs))
        workers = len(head)

        def stream() -> Iterator[Task]:
            # Popped, not iterated: a peeked task is not kept alive past its turn.
            while head:
                yield head.popleft()
            yield from rest

        if workers <= 1:
            yield from SerialBackend(self.retries, self._progress).execute(stream())
            return
        # Imported on first use: the pool modules cost start-up time that
        # serial, one-worker and cached runs never need back.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, multiprocessing.get_context(default_mp_context())
        ) as executor:
            yield from run_with_retries(
                stream(),
                partial(executor.submit, execute_task),
                self.retries,
                self._progress,
                window=workers,
            )


__all__ = ["ProcessBackend", "default_mp_context"]
