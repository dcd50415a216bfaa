"""Pluggable sweep execution backends.

One contract (:class:`~repro.runner.backends.base.ExecutionBackend`), three
strategies: ``serial`` (in-process fast path), ``process`` (a
``ProcessPoolExecutor`` over local workers) and ``queue`` (a filesystem work
queue drained by pull-based workers — see ``docs/distributed.md``).  :func:`create_backend` is the single factory the
runner and CLI go through.  The ``process`` and ``queue`` modules (and
:mod:`multiprocessing`) load only when one of them is named; import their
classes from :mod:`repro.runner.backends.process` and
:mod:`repro.runner.backends.queue`.
"""

from __future__ import annotations

from typing import Optional

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
from repro.runner.store import ResultsStore


def create_backend(
    name: str,
    jobs: int = 1,
    store: Optional[ResultsStore] = None,
    retries: int = 0,
    progress: ProgressFn = None,
    **options: object,
) -> ExecutionBackend:
    """Build the named backend from the runner's configuration.

    Extra keyword ``options`` are forwarded to backends that understand them
    (the queue backend's ``lease_timeout`` / ``poll_interval`` /
    ``wait_timeout`` / ``spawn_workers``); naming an option the selected
    backend does not take is a configuration error.
    """
    if name == "serial":
        _reject_options("serial", options)
        return SerialBackend(retries=retries, progress=progress)
    if name == "process":
        from repro.runner.backends.process import ProcessBackend

        _reject_options("process", options)
        return ProcessBackend(jobs=jobs, retries=retries, progress=progress)
    if name == "queue":
        from repro.runner.backends.queue import QueueBackend

        try:
            return QueueBackend(
                store,
                workers=jobs,
                retries=retries,
                progress=progress,
                **options,  # type: ignore[arg-type]
            )
        except TypeError as exc:
            raise ConfigurationError(f"queue backend: {exc}") from None
    raise ConfigurationError(
        f"backend={name!r} must be one of {', '.join(BACKEND_NAMES)}"
    )


def _reject_options(name: str, options: dict) -> None:
    if options:
        raise ConfigurationError(
            f"the {name} backend does not take option(s) "
            f"{', '.join(sorted(options))}"
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
