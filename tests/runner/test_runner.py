"""Tests for the parallel sweep runner: determinism, caching, failure handling."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SweepError
from repro.experiments import CollectionMode, ScenarioConfig
from repro.runner import ResultsStore, SweepCell, SweepRunner


def grid(n_cells: int = 4, **overrides) -> list:
    """A tiny analytic grid: one cell per cross-traffic utilization."""
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


def comparable(result) -> tuple:
    """The result fields that must be identical across jobs counts and caches."""
    return (
        result.empirical_detection_rate,
        result.measured_variance_ratio,
        result.measured_means,
        result.piat_stats,
    )


class TestDeterminism:
    def test_results_are_bit_identical_across_jobs_counts(self):
        cells = grid()
        serial = SweepRunner(jobs=1).run(cells)
        parallel = SweepRunner(jobs=4).run(cells)
        assert list(serial.results) == list(parallel.results)
        for key in serial.results:
            assert comparable(serial[key]) == comparable(parallel[key])

    def test_results_keyed_and_ordered_by_input_cells(self):
        cells = grid()
        report = SweepRunner(jobs=2).run(cells)
        assert list(report.results) == [cell.key for cell in cells]


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        cells = grid()
        cold_runner = SweepRunner(jobs=2, store=ResultsStore(tmp_path))
        cold = cold_runner.run(cells)
        assert (cold.hits, cold.misses) == (0, 4)
        assert all(not r.from_cache for r in cold.results.values())

        warm_runner = SweepRunner(jobs=2, store=ResultsStore(tmp_path))
        warm = warm_runner.run(cells)
        assert (warm.hits, warm.misses) == (4, 0)
        assert all(r.from_cache for r in warm.results.values())
        for key in cold.results:
            assert comparable(cold[key]) == comparable(warm[key])

    def test_partial_overlap_simulates_only_new_cells(self, tmp_path):
        store = ResultsStore(tmp_path)
        SweepRunner(store=store).run(grid(2))
        report = SweepRunner(store=store).run(grid(4))
        assert (report.hits, report.misses) == (2, 2)

    def test_changing_the_seed_misses_the_cache(self, tmp_path):
        store = ResultsStore(tmp_path)
        SweepRunner(store=store).run(grid(2))
        report = SweepRunner(store=store).run(grid(2, seed=8))
        assert (report.hits, report.misses) == (0, 2)

    def test_without_store_every_run_simulates(self):
        runner = SweepRunner()
        runner.run(grid(2))
        runner.run(grid(2))
        assert runner.cache_hits == 0
        assert runner.cache_misses == 4

    def test_identical_configs_are_deduplicated_within_one_sweep(self):
        cells = grid(2)
        twin = SweepCell(
            key="grid/twin",
            scenario=cells[0].scenario,
            sample_sizes=cells[0].sample_sizes,
            trials=cells[0].trials,
            mode=cells[0].mode,
            seed=cells[0].seed,
        )
        report = SweepRunner().run(cells + [twin])
        assert report.misses == 2  # the twin rides along with its original
        assert report.hits == 0  # no store: nothing is a cache hit
        assert report.deduplicated == 1
        assert "1 deduplicated" in report.summary()
        assert comparable(report["grid/twin"]) == comparable(report[cells[0].key])

    def test_summary_accumulates_across_runs(self, tmp_path):
        runner = SweepRunner(jobs=2, store=ResultsStore(tmp_path))
        runner.run(grid(2))
        runner.run(grid(2))
        assert "4 cells" in runner.summary()
        assert "2 simulated" in runner.summary()
        assert "2 cache hits" in runner.summary()


class TestFailurePropagation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_raises_sweep_error_naming_the_cell(self, jobs):
        cells = grid(2)
        # Passes construction but raises inside the worker at feature lookup.
        cells.append(
            SweepCell(
                key="grid/poison",
                scenario=ScenarioConfig(),
                sample_sizes=(50,),
                trials=4,
                mode=CollectionMode.ANALYTIC,
                seed=7,
                features=("variance", "bogus"),
            )
        )
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(jobs=jobs).run(cells)
        message = str(excinfo.value)
        assert "grid/poison" in message
        assert "bogus" in message
        assert "worker traceback" in message

    def test_nothing_is_cached_from_a_failed_sweep_cell(self, tmp_path):
        store = ResultsStore(tmp_path)
        poison = SweepCell(
            key="poison",
            scenario=ScenarioConfig(),
            sample_sizes=(50,),
            trials=4,
            mode=CollectionMode.ANALYTIC,
            features=("bogus",),
        )
        with pytest.raises(SweepError):
            SweepRunner(store=store).run([poison])
        assert poison.fingerprint() not in store


class TestRetries:
    def _flaky_run_cell(self, tmp_path, fail_times):
        """A run_cell wrapper that fails each cell's first ``fail_times`` attempts.

        Attempt counters live on disk, one file per cell, so the behaviour is
        identical — and race-free — whether the cell runs inline or in a
        forked pool worker.
        """
        from repro.runner.cells import run_cell as real_run_cell

        def counter_for(cell):
            return tmp_path / f"attempts-{cell.fingerprint()[:12]}"

        def flaky(cell, capture=None):
            counter = counter_for(cell)
            attempts = int(counter.read_text()) if counter.exists() else 0
            counter.write_text(str(attempts + 1))
            if attempts < fail_times:
                raise RuntimeError(f"transient failure #{attempts + 1}")
            return real_run_cell(cell, capture=capture)

        return flaky, counter_for

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failures_are_retried(self, tmp_path, monkeypatch, jobs):
        import repro.runner.runner as runner_module

        flaky, counter_for = self._flaky_run_cell(tmp_path, fail_times=1)
        monkeypatch.setattr(runner_module, "run_cell", flaky)
        lines = []
        cells = grid(2)
        report = SweepRunner(jobs=jobs, retries=2, progress=lines.append).run(cells)
        assert len(report.results) == 2
        for cell in cells:
            assert int(counter_for(cell).read_text()) == 2  # 1 failure + 1 success
        assert any("retrying" in line for line in lines)

    def test_exhausted_retries_abort_with_the_cell_key(self, tmp_path, monkeypatch):
        import repro.runner.runner as runner_module

        flaky, _ = self._flaky_run_cell(tmp_path, fail_times=100)
        monkeypatch.setattr(runner_module, "run_cell", flaky)
        with pytest.raises(SweepError) as excinfo:
            SweepRunner(retries=1).run(grid(1))
        message = str(excinfo.value)
        assert "grid/util=0.05" in message
        assert "transient failure" in message

    def test_zero_retries_keeps_the_historical_fail_fast_behaviour(self):
        cells = grid(1, features=("bogus",))
        with pytest.raises(SweepError):
            SweepRunner().run(cells)


class TestValidation:
    def test_rejects_duplicate_cell_keys(self):
        cells = grid(1) + grid(1)
        with pytest.raises(ConfigurationError) as excinfo:
            SweepRunner().run(cells)
        assert "duplicate" in str(excinfo.value)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(retries=-1)

    def test_takes_no_timeout(self):
        with pytest.raises(TypeError):
            SweepRunner(timeout=1.0)

    def test_empty_grid_is_a_noop(self):
        report = SweepRunner().run([])
        assert report.results == {}
        assert (report.hits, report.misses) == (0, 0)
