"""Pluggable sweep execution backends.

One contract (:class:`~repro.runner.backends.base.ExecutionBackend`), two
strategies: ``serial`` (in-process fast path) and ``process`` (a
``ProcessPoolExecutor`` over local workers).  :func:`create_backend` is the
single factory the runner and CLI go through.  The ``process`` module (and
:mod:`multiprocessing`) loads only when it is named; import its classes from
:mod:`repro.runner.backends.process`.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.runner.backends.base import (
    ExecutionBackend,
    ProgressFn,
    Task,
    TaskFailure,
    TaskOutcome,
    available_cpu_count,
    execute_task,
    resolve_jobs,
    task_key,
    task_unit,
)
from repro.runner.backends.serial import SerialBackend
from repro.runner.defaults import BACKEND_NAMES


def create_backend(
    name: str,
    jobs: int = 1,
    retries: int = 0,
    progress: ProgressFn = None,
) -> ExecutionBackend:
    """Build the named backend from the runner's configuration."""
    if name == "serial":
        return SerialBackend(retries=retries, progress=progress)
    if name == "process":
        from repro.runner.backends.process import ProcessBackend

        return ProcessBackend(jobs=jobs, retries=retries, progress=progress)
    raise ConfigurationError(
        f"backend={name!r} must be one of {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProgressFn",
    "SerialBackend",
    "Task",
    "TaskFailure",
    "TaskOutcome",
    "available_cpu_count",
    "create_backend",
    "execute_task",
    "resolve_jobs",
    "task_key",
    "task_unit",
]
