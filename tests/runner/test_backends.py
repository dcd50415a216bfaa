"""Tests for the two execution paths: parity, options, CPU autodetection.

One executor (:func:`repro.runner.execute.execute`) runs a sweep's tasks
inline or on a process pool, and both must be byte-identical: these tests
pin the serial/process parity at several worker counts, for every
registered experiment and for store-backed cold and warm runs, the
runner's backend and ``jobs`` validation, the ``--jobs auto`` resolution,
and the pool's failure semantics exercised on :func:`execute` itself
rather than through the runner's wiring.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import signal

import pytest

from repro.api import get_experiment, list_experiments
from repro.exceptions import ConfigurationError, SweepError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import CaptureSpec, ResultsStore, SweepCell, SweepRunner, seed_range
from repro.runner.defaults import BACKEND_NAMES
from repro.runner.execute import TaskFailure, available_cpu_count, execute, resolve_jobs


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


def two_level_cells(n: int = 2, seed: int = 11) -> list:
    """Hybrid children sharing one gateway capture (the fig8 shape).

    Each ``seed`` is a distinct capture; keys name it, so the children of
    several captures can share one grid.
    """
    cells = []
    for i in range(n):
        scenario = ScenarioConfig(n_hops=3, cross_utilization=0.1 + 0.2 * i)
        capture = CaptureSpec(
            key=f"parent-{seed}",
            scenario=scenario,
            n_intervals=241,
            seed=seed,
            seed_offsets=("train-x", "test-x"),
        )
        cells.append(
            SweepCell(
                key=f"child-{seed}/util={0.1 + 0.2 * i:.1f}",
                scenario=scenario,
                sample_sizes=(60,),
                trials=4,
                mode=CollectionMode.HYBRID,
                seed=seed,
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

    @staticmethod
    def pin_affinity(monkeypatch, affinity):
        """An 8-CPU machine without ``process_cpu_count`` whose mask is ``affinity``.

        ``affinity`` is a CPU set or an exception to raise; returns the list
        of pids the mask was asked for.
        """
        import os

        asked = []

        def sched_getaffinity(pid):
            asked.append(pid)
            if isinstance(affinity, Exception):
                raise affinity
            return affinity

        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", sched_getaffinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        return asked

    def test_affinity_mask_is_honoured_when_present(self, monkeypatch):
        asked = self.pin_affinity(monkeypatch, {3})
        assert available_cpu_count() == 1
        assert asked == [0]

    def test_denied_affinity_query_falls_back_to_cpu_count(self, monkeypatch):
        asked = self.pin_affinity(monkeypatch, OSError("affinity query denied"))
        assert available_cpu_count() == 8
        assert asked == [0]

    def test_resolve_jobs_passes_ints_through(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("2") == 2

    def test_resolve_jobs_auto_uses_available_cpus(self):
        assert resolve_jobs("auto") == available_cpu_count()

    def test_resolve_jobs_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs("many")


class TestRunnerOptions:
    """The backend name and ``jobs`` are checked once, by the runner."""

    def test_every_advertised_backend_constructs(self):
        for name in BACKEND_NAMES:
            assert SweepRunner(backend=name).backend_name == name

    def test_unknown_backend_is_named_in_the_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SweepRunner(backend="threads")
        assert "threads" in str(excinfo.value)
        for name in BACKEND_NAMES:
            assert name in str(excinfo.value)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_rejected_on_every_backend(self, name, jobs):
        with pytest.raises(ConfigurationError) as excinfo:
            SweepRunner(jobs=jobs, backend=name)
        assert str(excinfo.value) == f"jobs={jobs} must be >= 1"

    @pytest.mark.parametrize(
        "option", ["retries", "timeout", "lease_timeout", "poll_interval", "spawn_workers"]
    )
    def test_retired_options_are_rejected(self, option):
        with pytest.raises(TypeError) as excinfo:
            SweepRunner(**{option: 1})
        assert option in str(excinfo.value)


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

    def runner(self, backend, jobs, root) -> SweepRunner:
        return SweepRunner(jobs=jobs, store=ResultsStore(root), backend=backend)

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

    def test_a_capture_is_freed_after_its_last_child(
        self, backend, jobs, tmp_path, monkeypatch
    ):
        """The runner resolves a capture at its first child and lets it go
        after its last: when the stream resolves the next capture, only the
        tasks still in flight can hold an earlier one, and none outlives the
        run."""
        import weakref

        import repro.runner.runner as runner_module
        from repro.runner.capture import run_capture as real_run_capture

        cells = [cell for seed in (11, 12, 13) for cell in two_level_cells(3, seed)]
        reference = SweepRunner(backend="serial").run(cells)
        captures = []
        alive_at_resolution = []

        def tracked(spec):
            alive_at_resolution.append(sum(ref() is not None for ref in captures))
            result = real_run_capture(spec)
            captures.append(weakref.ref(result))
            return result

        monkeypatch.setattr(runner_module, "run_capture", tracked)
        report = self.runner(backend, jobs, tmp_path).run(cells)
        assert report.captures_simulated == len(captures) == 3
        # A pool's result thread may hold the task it has just completed for
        # an instant longer than the runner does.
        in_flight = jobs if backend == "process" and jobs > 1 else 0
        assert max(alive_at_resolution) <= in_flight
        assert [ref() for ref in captures] == [None] * 3
        for cell in cells:
            assert reference_result(report, cell) == reference_result(reference, cell)

    def test_interleaved_captures_match_the_grouped_run(self, backend, jobs, tmp_path):
        """Children of two captures in alternating order: each capture is
        still resolved once, and every child gets its own."""
        first, second = two_level_cells(3, 11), two_level_cells(3, 12)
        grouped = SweepRunner(backend="serial").run(first + second)
        interleaved = [cell for pair in zip(first, second) for cell in pair]
        report = self.runner(backend, jobs, tmp_path).run(interleaved)
        assert (report.misses, report.captures_simulated) == (6, 2)
        assert list(report.results) == [cell.key for cell in interleaved]
        for cell in interleaved:
            assert reference_result(report, cell) == reference_result(grouped, cell)

    def test_a_failed_capture_aborts_naming_it(
        self, backend, jobs, tmp_path, monkeypatch
    ):
        import repro.runner.runner as runner_module

        def broken(spec):
            raise RuntimeError("no gateway today")

        monkeypatch.setattr(runner_module, "run_capture", broken)
        cells = two_level_cells(2)
        with pytest.raises(SweepError) as excinfo:
            self.runner(backend, jobs, tmp_path / "store").run(cells)
        message = str(excinfo.value)
        assert message.startswith(
            "gateway capture 'parent-11' failed: RuntimeError: no gateway today\n"
            "--- worker traceback ---\n"
        )
        assert "in broken" in message
        assert list(ResultsStore(tmp_path / "store").fingerprints()) == []


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


def _pool_outcomes(cells) -> list:
    return list(execute([(cell, None) for cell in cells], 2))


def tasks_of(cells) -> list:
    return [(cell, None) for cell in cells]


class TestExecute:
    """The executor's outcome and failure semantics, pinned on ``execute``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_yields_one_outcome_per_task(self, workers):
        cells = grid(3)
        outcomes = list(execute(tasks_of(cells), workers))
        assert sorted(o.key for o in outcomes) == sorted(c.key for c in cells)
        assert not any(isinstance(o, TaskFailure) for o in outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_task_list_is_a_noop(self, workers):
        assert list(execute([], workers)) == []

    def test_failure_is_a_marker_not_an_exception(self):
        tasks = tasks_of(grid(1, features=("bogus",)))
        outcomes = list(execute(tasks, 1))
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], TaskFailure)
        assert outcomes[0].key == tasks[0][0].key

    @pytest.mark.parametrize("workers, n_tasks", [(1, 3), (4, 1)])
    def test_one_worker_or_one_task_runs_inline(self, workers, n_tasks, monkeypatch):
        """No pool is started when there is nothing to run side by side."""
        import repro.runner.runner as runner_module

        def where(cell, capture=None):
            return os.getpid()

        monkeypatch.setattr(runner_module, "run_cell", where)
        assert list(execute(tasks_of(grid(n_tasks)), workers)) == [os.getpid()] * n_tasks

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
        outcomes = run_in_forked_child(_pool_outcomes, cells)
        assert isinstance(outcomes, list), outcomes
        assert sorted(o.key for o in outcomes) == sorted(c.key for c in cells)
        (died,) = [o for o in outcomes if o.key == cells[0].key]
        assert isinstance(died, TaskFailure)
        assert "a pool worker died" in died.error


class StandInPool:
    """Takes ``ProcessPoolExecutor``'s place for the pool-loop tests."""

    def __init__(self, workers, mp_context):
        self.workers = workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


class TestPoolLoop:
    """The pool's window loop, on a stand-in pool that fails on demand."""

    @pytest.fixture
    def use_pool(self, monkeypatch):
        def install(pool_class):
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool_class)

        return install

    def test_the_window_bounds_the_tasks_in_flight(self, use_pool, monkeypatch):
        import time

        import repro.runner.runner as runner_module

        in_flight = []

        class ThreadPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers, mp_context):
                # More threads than the window: only the loop limits the
                # tasks in flight.
                super().__init__(4)
                self.submitted = []

            def submit(self, fn, *args):
                in_flight.append(1 + sum(not f.done() for f in self.submitted))
                self.submitted.append(super().submit(fn, *args))
                return self.submitted[-1]

        def slow(cell, capture=None):
            time.sleep(0.05)
            return cell.key

        use_pool(ThreadPool)
        monkeypatch.setattr(runner_module, "run_cell", slow)
        cells = grid(6)
        outcomes = list(execute(tasks_of(cells), 2))
        assert sorted(outcomes) == sorted(c.key for c in cells)
        assert max(in_flight) == 2

    def test_a_broken_pool_fails_each_task(self, use_pool):
        class BrokenPool(StandInPool):
            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_exception(
                    concurrent.futures.BrokenExecutor("a worker exited")
                )
                return future

        use_pool(BrokenPool)
        tasks = tasks_of(grid(3))
        outcomes = list(execute(tasks, 2))
        assert sorted(o.key for o in outcomes) == sorted(t[0].key for t in tasks)
        for outcome in outcomes:
            assert isinstance(outcome, TaskFailure)
            assert "a pool worker died" in outcome.error
            assert "a worker exited" in outcome.error

    def test_a_pool_refusing_new_work_fails_the_refused_tasks(self, use_pool):
        class RefusingPool(StandInPool):
            def submit(self, fn, *args):
                raise concurrent.futures.BrokenExecutor("the pool is not usable anymore")

        use_pool(RefusingPool)
        tasks = tasks_of(grid(3))
        outcomes = list(execute(tasks, 2))
        assert [o.key for o in outcomes] == [t[0].key for t in tasks]
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

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two_on_every_backend(self, backend, jobs, capsys):
        from repro.cli import main

        argv = ["run", "fig4", "--preset", "smoke", "--backend", backend, "--jobs", jobs]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"repro: error: jobs={jobs} must be >= 1"]

    def test_backend_flag_round_trips(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "--backend", "serial"])
        assert args.backend == "serial"
        default = build_parser().parse_args(["sweep"])
        assert default.backend == "process"
