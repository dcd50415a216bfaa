"""The serial backend: every task runs inline in the parent process.

No pool, no pickling, no worker startup — for warm sweeps and small grids
the dominant cost of the process backend is forking and tearing down its
pool, which since the vectorized capture kernel (PR 6) routinely exceeds the
simulation time itself.  The serial loop is also the reference
implementation for the bit-identical-at-any-backend guarantee: one task at a
time, in submission order, with the same bounded-retry loop
(:func:`~repro.runner.backends.base.run_with_retries`) as the process
backend.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    Task,
    TaskOutcome,
    execute_task,
    run_with_retries,
    validate_retries,
)


class SerialBackend(ExecutionBackend):
    """In-process execution with bounded retries, one task at a time."""

    name = "serial"

    def __init__(self, retries: int = 0, progress: ProgressFn = None) -> None:
        self.retries = validate_retries(retries)
        self._progress = progress

    def execute(self, tasks: Iterable[Task]) -> Iterator[TaskOutcome]:
        from concurrent.futures import Future

        def run_now(task: Task) -> "Future[TaskOutcome]":
            future: "Future[TaskOutcome]" = Future()
            future.set_result(execute_task(task))
            return future

        yield from run_with_retries(tasks, run_now, self.retries, self._progress)


__all__ = ["SerialBackend"]
