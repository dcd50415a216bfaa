"""Tests for the execution-backend layer: factory, parity, CPU autodetection.

The backend contract is what keeps every execution strategy byte-identical:
these tests pin the serial/process parity at several worker counts, for
every registered experiment and for store-backed cold and warm runs, the
backend factory's validation (an unknown name is named), the
``--jobs auto`` resolution, and the pool's failure semantics exercised
through an explicitly constructed backend rather than through the runner's
wiring.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest

from repro.api import get_experiment, list_experiments
from repro.exceptions import ConfigurationError, SweepError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import CaptureSpec, ResultsStore, SweepCell, SweepRunner, seed_range
from repro.runner.backends import (
    BACKEND_NAMES,
    SerialBackend,
    available_cpu_count,
    create_backend,
    resolve_jobs,
)
from repro.runner.backends.base import TaskFailure
from repro.runner.backends.process import ProcessBackend


def grid(n_cells: int = 4, **overrides) -> list:
    cells = []
    for i in range(n_cells):
        utilization = 0.05 + 0.1 * i
        params = dict(
            key=f"grid/util={utilization:.2f}",
            scenario=ScenarioConfig(n_hops=1, cross_utilization=utilization),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
            seed=7,
        )
        params.update(overrides)
        cells.append(SweepCell(**params))
    return cells


def two_level_cells(n: int = 2) -> list:
    """Hybrid children sharing one gateway capture (the fig8 shape)."""
    cells = []
    for i in range(n):
        scenario = ScenarioConfig(n_hops=3, cross_utilization=0.1 + 0.2 * i)
        capture = CaptureSpec(
            key="parent",
            scenario=scenario,
            n_intervals=241,
            seed=11,
            seed_offsets=("train-x", "test-x"),
        )
        cells.append(
            SweepCell(
                key=f"child/util={0.1 + 0.2 * i:.1f}",
                scenario=scenario,
                sample_sizes=(60,),
                trials=4,
                mode=CollectionMode.HYBRID,
                seed=11,
                seed_offsets=("train-x", "test-x"),
                capture=capture,
            )
        )
    return cells


def comparable(result) -> tuple:
    """The result fields that must be identical across backends and jobs."""
    return (
        result.empirical_detection_rate,
        result.measured_variance_ratio,
        result.measured_means,
        result.piat_stats,
    )


class TestCpuAutodetect:
    def test_available_cpu_count_is_a_positive_int(self):
        count = available_cpu_count()
        assert isinstance(count, int) and count >= 1

    def test_affinity_mask_is_honoured_when_present(self):
        import os

        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no affinity mask")
        assert available_cpu_count() <= os.cpu_count()
        assert available_cpu_count() >= len(os.sched_getaffinity(0)) or True

    def test_resolve_jobs_passes_ints_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("2") == 2

    def test_resolve_jobs_auto_uses_available_cpus(self):
        assert resolve_jobs("auto") == available_cpu_count()

    def test_resolve_jobs_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs("many")


class TestFactory:
    def test_every_advertised_backend_constructs(self):
        for name in BACKEND_NAMES:
            backend = create_backend(name, jobs=1)
            assert backend.name == name

    def test_unknown_backend_is_named_in_the_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            create_backend("threads")
        assert "threads" in str(excinfo.value)
        for name in BACKEND_NAMES:
            assert name in str(excinfo.value)

    def test_unknown_options_are_rejected_per_backend(self):
        """The factory takes a name, a worker count, retries and progress only."""
        for name in BACKEND_NAMES:
            for option in ("store", "lease_timeout", "poll_interval", "spawn_workers"):
                with pytest.raises(TypeError) as excinfo:
                    create_backend(name, jobs=1, **{option: None})
                assert option in str(excinfo.value)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_no_backend_takes_a_timeout(self, name):
        with pytest.raises(TypeError) as excinfo:
            create_backend(name, jobs=1, timeout=5.0)
        assert "timeout" in str(excinfo.value)

    @pytest.mark.parametrize("module", ["queue", "codec"])
    def test_retired_backend_modules_are_gone(self, module):
        import importlib.util

        assert importlib.util.find_spec(f"repro.runner.backends.{module}") is None

    def test_process_validations_are_unchanged(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(jobs=0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(retries=-1)
        with pytest.raises(ConfigurationError):
            SerialBackend(retries=-1)


class TestBackendParity:
    def test_serial_and_process_agree_at_every_jobs_count(self):
        cells = grid()
        reference = SweepRunner(backend="serial").run(cells)
        for jobs in (1, 2, 4):
            report = SweepRunner(jobs=jobs, backend="process").run(cells)
            assert list(report.results) == list(reference.results)
            for key in reference.results:
                assert comparable(report[key]) == comparable(reference[key])

    def test_runner_summary_names_the_backend(self):
        runner = SweepRunner(backend="serial")
        runner.run(grid(1))
        assert runner.summary().endswith("jobs=1, backend=serial")
        default = SweepRunner(jobs=2)
        default.run(grid(1))
        assert default.summary().endswith("jobs=2, backend=process")


#: Every backend, at the worker counts a store-backed sweep is run with.
BACKEND_RUNS = [("serial", 1), ("process", 1), ("process", 2)]
BACKEND_RUN_IDS = ["serial", "process-1", "process-2"]


def stored_result(store: ResultsStore, cell) -> dict:
    """A stored cell result without its wall-clock field."""
    result = dict(store.get(cell.fingerprint())["result"])
    result.pop("elapsed_seconds")
    return result


def reference_result(report, cell) -> dict:
    result = report[cell.key].to_json_dict()
    result.pop("elapsed_seconds")
    return result


@pytest.mark.parametrize("backend, jobs", BACKEND_RUNS, ids=BACKEND_RUN_IDS)
class TestStoreBackedRuns:
    """A sweep with a results store behaves alike on every backend.

    Cold runs fill the store with the storeless serial results, warm runs
    simulate nothing, and a failure aborts the sweep naming its cell.
    """

    def runner(self, backend, jobs, root, **options) -> SweepRunner:
        return SweepRunner(
            jobs=jobs, store=ResultsStore(root), backend=backend, **options
        )

    def test_cold_run_stores_the_serial_results(self, backend, jobs, tmp_path):
        cells = grid(3)
        reference = SweepRunner(backend="serial").run(cells)
        report = self.runner(backend, jobs, tmp_path).run(cells)
        assert (report.hits, report.misses) == (0, 3)
        store = ResultsStore(tmp_path)
        for cell in cells:
            assert stored_result(store, cell) == reference_result(reference, cell)

    def test_warm_run_hits_the_cache(self, backend, jobs, tmp_path):
        cells = grid(3)
        SweepRunner(backend="serial", store=ResultsStore(tmp_path)).run(cells)
        warm = self.runner(backend, jobs, tmp_path).run(cells)
        assert (warm.hits, warm.misses) == (3, 0)

    def test_already_cached_cells_are_skipped(self, backend, jobs, tmp_path):
        cells = grid(2)
        SweepRunner(backend="serial", store=ResultsStore(tmp_path)).run([cells[0]])
        report = self.runner(backend, jobs, tmp_path).run(cells)
        assert (report.hits, report.misses) == (1, 1)

    def test_two_level_cells_get_their_capture(self, backend, jobs, tmp_path):
        cells = two_level_cells(2)
        reference = SweepRunner(backend="serial").run(cells)
        report = self.runner(backend, jobs, tmp_path).run(cells)
        assert report.captures_simulated == 1
        store = ResultsStore(tmp_path)
        assert store.get(cells[0].capture.fingerprint(), kind="capture") is not None
        for cell in cells:
            assert stored_result(store, cell) == reference_result(reference, cell)

    def test_warm_two_level_run_simulates_no_capture(self, backend, jobs, tmp_path):
        cells = two_level_cells(2)
        SweepRunner(backend="serial", store=ResultsStore(tmp_path)).run(cells)
        warm = self.runner(backend, jobs, tmp_path).run(cells)
        assert (warm.hits, warm.misses, warm.captures_simulated) == (2, 0, 0)

    def test_failure_aborts_naming_the_cell(self, backend, jobs, tmp_path):
        cells = grid(1, features=("bogus",))
        with pytest.raises(SweepError) as excinfo:
            self.runner(backend, jobs, tmp_path / "store").run(cells)
        message = str(excinfo.value)
        assert cells[0].key in message
        assert "worker traceback" in message
        assert list(ResultsStore(tmp_path / "store").fingerprints()) == []

    def test_transient_failures_are_retried(
        self, backend, jobs, tmp_path, monkeypatch
    ):
        import repro.runner.runner as runner_module

        cells = grid(2)
        flaky, attempts = flaky_run_cell(tmp_path, cells[0].key, fail_times=1)
        monkeypatch.setattr(runner_module, "run_cell", flaky)
        report = self.runner(backend, jobs, tmp_path / "store", retries=1).run(cells)
        assert (report.hits, report.misses) == (0, 2)
        assert [attempts(c) for c in cells] == [2, 1]


@pytest.mark.parametrize("name", list_experiments())
def test_reports_are_byte_identical_across_backends(name, tmp_path):
    """Every experiment's report, at two seeds, cold and warm, on every backend."""
    experiment = get_experiment(name, "fast", 2003)
    seeds = seed_range(2003, 2)
    cells = experiment.cells(seeds)

    def render(report) -> str:
        return experiment.assemble(report, seeds=seeds).to_text()

    reference = render(SweepRunner(backend="serial").run(cells))
    for backend, jobs in BACKEND_RUNS:
        assert render(SweepRunner(jobs=jobs, backend=backend).run(cells)) == reference
    root = tmp_path / "store"
    cold = SweepRunner(jobs=2, backend="process", store=ResultsStore(root))
    assert render(cold.run(cells)) == reference
    warm = SweepRunner(backend="serial", store=ResultsStore(root))
    assert render(warm.run(cells)) == reference
    assert warm.cache_misses == 0


def _send_outcome(sender, function, args) -> None:
    """Call ``function(*args)`` and send its value, or its error, back."""
    try:
        sender.send(function(*args))
    except Exception as exc:
        sender.send(f"{type(exc).__name__}: {exc}")


def run_in_forked_child(function, *args, deadline: float = 30.0):
    """``function(*args)`` in a forked child, failing the test past ``deadline``.

    For pool failures whose regression is a parent that waits forever: the
    hang is confined to the child, which is killed at the deadline.  An
    exception in the child comes back as its ``"Type: message"`` string.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    # Not a daemon: daemonic processes may not start the pool's workers.
    child = context.Process(target=_send_outcome, args=(sender, function, args))
    child.start()
    child.join(timeout=deadline)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail(f"{function.__name__} hung past {deadline:.0f}s")
    assert receiver.poll(), f"the child exited with {child.exitcode}"
    return receiver.recv()


def _run_process_sweep(cells) -> str:
    SweepRunner(jobs=2, backend="process").run(cells)
    return "the sweep finished"


def _process_outcomes(cells) -> list:
    return list(ProcessBackend(jobs=2).execute([("cell", c) for c in cells]))


def flaky_run_cell(tmp_path, failing_key: str, fail_times: int):
    """A ``run_cell`` whose cell ``failing_key`` fails its first attempts.

    Returns the wrapper and a function reading a cell's attempt count.  The
    counters live on disk, one file per cell, so pool workers share them.
    """
    from repro.runner.cells import run_cell as real_run_cell

    def counter_for(cell):
        return tmp_path / f"attempts-{cell.fingerprint()[:12]}"

    def attempts(cell) -> int:
        counter = counter_for(cell)
        return int(counter.read_text()) if counter.exists() else 0

    def flaky(cell, capture=None):
        made = attempts(cell)
        counter_for(cell).write_text(str(made + 1))
        if cell.key == failing_key and made < fail_times:
            raise RuntimeError(f"transient failure #{made + 1}")
        return real_run_cell(cell, capture=capture)

    return flaky, attempts


class TestProcessBackendSemantics:
    """The pool loop's retry/failure behaviour, pinned on the backend itself."""

    def _tasks(self, n=3):
        return [("cell", cell) for cell in grid(n)]

    def test_yields_one_outcome_per_task(self):
        outcomes = list(ProcessBackend(jobs=2).execute(self._tasks(3)))
        assert len(outcomes) == 3
        assert not any(isinstance(o, TaskFailure) for o in outcomes)

    def test_empty_task_list_is_a_noop(self):
        assert list(ProcessBackend(jobs=2).execute([])) == []
        assert list(SerialBackend().execute([])) == []

    def test_failure_is_a_marker_not_an_exception(self):
        tasks = [("cell", cell) for cell in grid(1, features=("bogus",))]
        outcomes = list(SerialBackend().execute(tasks))
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].key == tasks[0][1].key

    def test_a_killed_worker_aborts_the_sweep(self, monkeypatch):
        """A pool worker SIGKILLed mid-cell (the OOM killer's way) fails the sweep.

        The sweep runs in a forked child with a hard deadline, because the
        failure this pins is a parent that waits forever for the dead
        worker's result.
        """
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        cells = grid(2)

        def die_on_the_second_cell(cell, capture=None):
            if cell.key == cells[1].key:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_cell(cell, capture=capture)

        monkeypatch.setattr(runner_module, "run_cell", die_on_the_second_cell)
        message = run_in_forked_child(_run_process_sweep, cells)
        assert message.startswith("SweepError: ")
        assert cells[1].key in message
        assert "a pool worker died" in message

    def test_a_killed_worker_still_yields_one_outcome_per_task(self, monkeypatch):
        """Tasks queued behind a dead worker fail too; none is dropped.

        With more tasks than workers, the loop submits to a pool that is
        already broken, which refuses the work at submission time.
        """
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        cells = grid(4)

        def die_on_the_first_cell(cell, capture=None):
            if cell.key == cells[0].key:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run_cell(cell, capture=capture)

        monkeypatch.setattr(runner_module, "run_cell", die_on_the_first_cell)
        outcomes = run_in_forked_child(_process_outcomes, cells)
        assert isinstance(outcomes, list), outcomes
        assert sorted(o.key for o in outcomes) == sorted(c.key for c in cells)
        (died,) = [o for o in outcomes if o.key == cells[0].key]
        assert isinstance(died, TaskFailure)
        assert "a pool worker died" in died.error

    def test_a_failed_task_is_retried_in_the_pool(self, tmp_path, monkeypatch):
        import repro.runner.runner as runner_module

        cells = grid(3)
        flaky, attempts = flaky_run_cell(tmp_path, cells[0].key, fail_times=1)
        monkeypatch.setattr(runner_module, "run_cell", flaky)
        lines = []
        backend = ProcessBackend(jobs=2, retries=1, progress=lines.append)
        outcomes = list(backend.execute([("cell", c) for c in cells]))
        assert sorted(o.key for o in outcomes) == sorted(c.key for c in cells)
        assert not any(isinstance(o, TaskFailure) for o in outcomes)
        assert [attempts(c) for c in cells] == [2, 1, 1]
        assert lines == [f"cell {cells[0].key}: failed, retrying (attempt 2/2)"]

    def test_exhausted_retries_yield_one_failure_marker(self, tmp_path, monkeypatch):
        import repro.runner.runner as runner_module

        cells = grid(3)
        flaky, attempts = flaky_run_cell(tmp_path, cells[0].key, fail_times=100)
        monkeypatch.setattr(runner_module, "run_cell", flaky)
        lines = []
        backend = ProcessBackend(jobs=2, retries=2, progress=lines.append)
        outcomes = list(backend.execute([("cell", c) for c in cells]))
        failures = [o for o in outcomes if isinstance(o, TaskFailure)]
        assert len(outcomes) == 3
        assert [f.key for f in failures] == [cells[0].key]
        assert "transient failure #3" in failures[0].error
        assert attempts(cells[0]) == 3
        assert lines == [
            f"cell {cells[0].key}: failed, retrying (attempt 2/3)",
            f"cell {cells[0].key}: failed, retrying (attempt 3/3)",
        ]


class TestRetryLoop:
    """``run_with_retries``, the loop the serial and process backends share."""

    def test_a_failed_task_goes_to_the_back_of_the_line(self, monkeypatch):
        import repro.runner.runner as runner_module
        from repro.runner.cells import run_cell as real_run_cell

        cells = grid(3)
        order = []

        def fail_first_attempt(cell, capture=None):
            order.append(cell.key)
            if order.count(cell.key) == 1 and cell.key == cells[0].key:
                raise RuntimeError("first attempt")
            return real_run_cell(cell, capture=capture)

        monkeypatch.setattr(runner_module, "run_cell", fail_first_attempt)
        outcomes = list(SerialBackend(retries=1).execute([("cell", c) for c in cells]))
        assert not any(isinstance(o, TaskFailure) for o in outcomes)
        assert order == [cells[0].key, cells[1].key, cells[2].key, cells[0].key]

    def test_the_window_bounds_the_tasks_in_flight(self):
        import time
        from concurrent.futures import ThreadPoolExecutor

        from repro.runner.backends.base import run_with_retries

        submitted = []
        in_flight = []

        def slow(task):
            time.sleep(0.05)
            return task[1]

        with ThreadPoolExecutor(4) as executor:

            def submit(task):
                in_flight.append(1 + sum(not f.done() for f in submitted))
                submitted.append(executor.submit(slow, task))
                return submitted[-1]

            tasks = [("cell", f"t{i}") for i in range(6)]
            outcomes = list(run_with_retries(tasks, submit, 0, None, window=2))
        assert sorted(outcomes) == [f"t{i}" for i in range(6)]
        assert max(in_flight) == 2

    def test_a_broken_pool_fails_each_task_without_retrying(self):
        from concurrent.futures import BrokenExecutor, Future

        from repro.runner.backends.base import run_with_retries

        def submit(task):
            future = Future()
            future.set_exception(BrokenExecutor("a worker exited"))
            return future

        lines = []
        tasks = [("cell", cell) for cell in grid(3)]
        outcomes = list(run_with_retries(tasks, submit, 3, lines.append, window=2))
        assert sorted(o.key for o in outcomes) == sorted(t[1].key for t in tasks)
        for outcome in outcomes:
            assert isinstance(outcome, TaskFailure)
            assert "a pool worker died" in outcome.error
            assert "a worker exited" in outcome.error
        assert lines == []

    def test_a_pool_refusing_new_work_fails_the_refused_tasks(self):
        from concurrent.futures import BrokenExecutor

        from repro.runner.backends.base import run_with_retries

        def submit(task):
            raise BrokenExecutor("the pool is not usable anymore")

        tasks = [("cell", cell) for cell in grid(3)]
        outcomes = list(run_with_retries(tasks, submit, 1, None, window=2))
        assert [o.key for o in outcomes] == [t[1].key for t in tasks]
        assert all("a pool worker died" in o.error for o in outcomes)


class TestCliJobsParsing:
    def test_jobs_auto_is_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig4", "--jobs", "auto"])
        assert args.jobs == "auto"

    def test_jobs_int_still_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run", "fig4", "--jobs", "3"])
        assert args.jobs == 3

    def test_jobs_garbage_is_a_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig4", "--jobs", "lots"])
        assert excinfo.value.code == 2

    def test_jobs_zero_still_exits_two(self, capsys):
        from repro.cli import main

        assert main(["run", "fig4", "--jobs", "0"]) == 2
        assert "jobs=0" in capsys.readouterr().err

    def test_backend_flag_round_trips(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--backend", "serial"])
        assert args.backend == "serial"
        default = build_parser().parse_args(["sweep"])
        assert default.backend == "process"
