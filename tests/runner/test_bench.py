"""Tests for the benchmark harness: schema, comparison semantics, and the runner.

The comparison logic is what CI trusts to catch performance regressions, so
its direction-awareness (seconds regress up, speedups regress down), its
tolerance arithmetic and its handling of missing baselines are pinned
exactly.  One slow test runs the real benchmark at miniature sizes to keep
the measurement path itself honest.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.runner.bench import (
    BENCH_SCHEMA_VERSION,
    RATIO_METRICS,
    BenchResult,
    collect_machine_info,
    compare,
    metric_direction,
    run_bench,
)


#: The benchmark artifacts committed at the repository root.
COMMITTED_ARTIFACTS = sorted(Path(__file__).resolve().parents[2].glob("BENCH_*.json"))


def make_result(metrics, pr="test"):
    return BenchResult(
        pr=pr,
        machine={"platform": "test"},
        metrics=metrics,
    )


class TestMetricDirection:
    def test_seconds_are_lower_better(self):
        assert metric_direction("sweep_cold_seconds") == "lower"

    def test_speedups_and_rates_are_higher_better(self):
        assert metric_direction("cold_capture_speedup") == "higher"
        assert metric_direction("engine_events_per_sec") == "higher"

    def test_unknown_suffixes_are_rejected(self):
        with pytest.raises(ConfigurationError):
            metric_direction("wall_clock")

    def test_ratio_metrics_follow_the_convention(self):
        for name in RATIO_METRICS:
            assert metric_direction(name) == "higher"


class TestBenchResultSchema:
    def test_round_trips_through_json(self, tmp_path):
        result = make_result({"a_seconds": 1.5, "b_speedup": 12.0})
        path = tmp_path / "BENCH_test.json"
        result.save(path)
        loaded = BenchResult.load(path)
        assert loaded == result
        # And the on-disk form is plain, sorted, newline-terminated JSON.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == BENCH_SCHEMA_VERSION

    def test_carries_no_wall_clock_stamp(self):
        result = make_result({"a_seconds": 1.0})
        assert sorted(result.to_json_dict()) == ["machine", "metrics", "notes", "pr", "schema"]
        assert result.to_text().splitlines()[0] == "benchmark test"

    @pytest.mark.parametrize("path", COMMITTED_ARTIFACTS, ids=lambda p: p.name)
    def test_every_committed_artifact_loads(self, path):
        # Older artifacts carry a created_utc stamp, which loading ignores.
        loaded = BenchResult.load(path)
        assert loaded.pr and loaded.metrics
        assert "created_utc" not in loaded.to_json_dict()

    def test_committed_artifacts_are_found(self):
        assert len(COMMITTED_ARTIFACTS) >= 9

    def test_rejects_unknown_schema_versions(self, tmp_path):
        payload = make_result({"a_seconds": 1.0}).to_json_dict()
        payload["schema"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError):
            BenchResult.load(path)

    def test_rejects_misnamed_and_non_finite_metrics(self):
        with pytest.raises(ConfigurationError):
            make_result({"wall_clock": 1.0})
        with pytest.raises(ConfigurationError):
            make_result({"a_seconds": float("nan")})
        with pytest.raises(ConfigurationError):
            make_result({"a_seconds": -1.0})
        with pytest.raises(ConfigurationError):
            make_result({})

    def test_missing_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            BenchResult.load(tmp_path / "absent.json")

    def test_machine_info_has_the_expected_keys(self):
        info = collect_machine_info()
        assert {"platform", "python", "numpy", "cpu_count"} <= set(info)


class TestCompare:
    def test_regression_in_seconds_is_detected(self):
        current = make_result({"run_seconds": 1.5})
        baseline = make_result({"run_seconds": 1.0})
        comparison = compare(current, baseline, max_regression=0.2)
        assert not comparison.ok
        assert comparison.regressions[0].name == "run_seconds"
        assert comparison.regressions[0].regression == pytest.approx(0.5)

    def test_regression_in_speedup_is_detected(self):
        current = make_result({"kernel_speedup": 5.0})
        baseline = make_result({"kernel_speedup": 10.0})
        comparison = compare(current, baseline, max_regression=0.2)
        assert not comparison.ok
        assert comparison.regressions[0].regression == pytest.approx(0.5)

    def test_improvements_pass_and_read_negative(self):
        current = make_result({"run_seconds": 0.5, "kernel_speedup": 20.0})
        baseline = make_result({"run_seconds": 1.0, "kernel_speedup": 10.0})
        comparison = compare(current, baseline, max_regression=0.2)
        assert comparison.ok
        assert all(row.regression == pytest.approx(-0.5) or row.regression == pytest.approx(-1.0)
                   for row in comparison.rows)

    def test_changes_within_tolerance_pass(self):
        current = make_result({"run_seconds": 1.15})
        baseline = make_result({"run_seconds": 1.0})
        assert compare(current, baseline, max_regression=0.2).ok
        assert not compare(current, baseline, max_regression=0.1).ok

    def test_missing_baseline_is_tolerated(self):
        comparison = compare(make_result({"run_seconds": 1.0}), None)
        assert comparison.ok
        assert comparison.rows == ()

    def test_one_sided_metrics_are_skipped_not_failed(self):
        current = make_result({"run_seconds": 1.0, "new_speedup": 5.0})
        baseline = make_result({"run_seconds": 1.0, "old_speedup": 5.0})
        comparison = compare(current, baseline)
        assert comparison.ok
        assert set(comparison.skipped) == {"new_speedup", "old_speedup"}

    def test_metric_filter_restricts_the_comparison(self):
        current = make_result({"run_seconds": 99.0, "kernel_speedup": 10.0})
        baseline = make_result({"run_seconds": 1.0, "kernel_speedup": 10.0})
        assert not compare(current, baseline).ok
        assert compare(current, baseline, metrics=["kernel_speedup"]).ok
        with pytest.raises(ConfigurationError):
            compare(current, baseline, metrics=["no_such_speedup"])

    def test_negative_tolerance_is_rejected(self):
        with pytest.raises(ConfigurationError):
            compare(make_result({"a_seconds": 1.0}), make_result({"a_seconds": 1.0}),
                    max_regression=-0.1)

    def test_report_text_names_the_verdicts(self):
        current = make_result({"run_seconds": 2.0, "kernel_speedup": 30.0})
        baseline = make_result({"run_seconds": 1.0, "kernel_speedup": 10.0})
        text = compare(current, baseline).to_text()
        assert "REGRESSED" in text and "improved" in text and "FAIL" in text

    def test_an_improved_ratio_reads_as_better(self):
        # The committed BENCH_pr24.json cold_capture_speedup against a
        # faster run: an improvement is a positive "better", never a
        # negative "worse".
        current = make_result({"cold_capture_speedup": 94.9495})
        baseline = make_result({"cold_capture_speedup": 65.3252})
        text = compare(current, baseline).to_text()
        assert "(45.3% better)  improved" in text
        assert "worse" not in text

    def test_a_regression_reads_as_worse(self):
        current = make_result({"run_seconds": 1.1})
        baseline = make_result({"run_seconds": 1.0})
        assert "(+10.0% worse)  ok" in compare(current, baseline).to_text()


class TestRunBench:
    @pytest.fixture(scope="class")
    def result(self):
        # Miniature sizes: the point is exercising the measurement path, not
        # producing stable timings.
        return run_bench("test", capture_intervals=400, repeats=1)

    def test_produces_the_full_metric_set(self, result):
        # The gated ratios and the six timings they divide — nothing else.
        assert {
            "capture_event_seconds",
            "capture_vectorized_seconds",
            "cold_capture_speedup",
            "routed_capture_event_seconds",
            "routed_capture_vectorized_seconds",
            "routed_capture_speedup",
            "sweep_cold_seconds",
            "sweep_warm_seconds",
            "sweep_warm_speedup",
        } == set(result.metrics)
        assert set(RATIO_METRICS) <= set(result.metrics)
        assert all(value > 0.0 for value in result.metrics.values())

    def test_machine_info_records_available_cpus(self, result):
        available = result.machine["cpu_count_available"]
        assert isinstance(available, int) and available >= 1
        assert available <= result.machine["cpu_count"]

    def test_kernels_agreed_and_crosscheck_recorded(self, result):
        assert result.notes["captures_identical"] is True
        crosscheck = result.notes["analytic_crosscheck"]
        assert crosscheck["measured_variance_ratio"] == pytest.approx(
            crosscheck["model_variance_ratio"], rel=0.5
        )
        assert 0.5 <= crosscheck["exact_detection_rate_at_1000"] <= 1.0

    def test_vectorized_kernel_is_faster(self, result):
        # The committed artifact records ~75x; even tiny captures on a busy
        # CI box clear 1x comfortably.
        assert result.metrics["cold_capture_speedup"] > 1.0

    def test_routed_kernel_is_faster(self, result):
        assert result.metrics["routed_capture_speedup"] > 1.0
        assert result.notes["routed_capture"]["n_hops"] > 0

    def test_diverging_kernels_refuse_to_report(self, monkeypatch):
        from repro.experiments import base

        real = base.simulate_gateway_capture

        def skewed(*args, **kwargs):
            intervals = real(*args, **kwargs)
            if kwargs.get("with_network"):
                intervals = intervals + 1e-12
            return intervals

        monkeypatch.setattr(base, "simulate_gateway_capture", skewed)
        with pytest.raises(ConfigurationError, match="different captures"):
            run_bench("test", capture_intervals=100, repeats=1)

    def test_diverging_gateway_captures_refuse_to_report(self, monkeypatch):
        from repro.experiments import base

        real = base.simulate_gateway_capture

        def skewed(*args, **kwargs):
            intervals = real(*args, **kwargs)
            if not kwargs.get("with_network"):
                intervals = intervals + 1e-12
            return intervals

        monkeypatch.setattr(base, "simulate_gateway_capture", skewed)
        with pytest.raises(ConfigurationError, match="different captures"):
            run_bench("test", capture_intervals=100, repeats=1)

    def test_warm_sweep_reads_every_shard_from_disk(self, monkeypatch):
        """The warm side must time shard reads, not the cold run's index."""
        from repro.runner import bench
        from repro.runner.store import ResultsStore

        read_back = []
        real = ResultsStore.shard_winner.__func__

        def counting(cls, path):
            record = real(cls, path)
            if record is not None:
                read_back.append(path)
            return record

        monkeypatch.setattr(bench, "SWEEP_SEEDS", 2)
        monkeypatch.setattr(ResultsStore, "shard_winner", classmethod(counting))
        cold, warm, n_cells = bench._time_sweep(11, repeats=2)
        assert n_cells == 4
        # only warm lookups find a record on disk: every cell, every repeat
        assert len(read_back) == 2 * n_cells
        assert cold > warm > 0.0

    def test_artifact_round_trips(self, result, tmp_path):
        path = tmp_path / "BENCH_test.json"
        result.save(path)
        assert BenchResult.load(path) == result


class TestZeroBaseline:
    """A zero-valued baseline admits no relative change; it must fail loudly."""

    def test_nonzero_current_raises_and_names_the_metric(self):
        current = make_result({"run_seconds": 1.5})
        baseline = make_result({"run_seconds": 0.0})
        with pytest.raises(ConfigurationError, match="run_seconds"):
            compare(current, baseline)

    def test_higher_better_metrics_fail_the_same_way(self):
        current = make_result({"kernel_speedup": 5.0})
        baseline = make_result({"kernel_speedup": 0.0})
        with pytest.raises(ConfigurationError, match="kernel_speedup"):
            compare(current, baseline)

    def test_identical_zeros_are_a_legitimate_no_change(self):
        current = make_result({"run_seconds": 0.0})
        baseline = make_result({"run_seconds": 0.0})
        comparison = compare(current, baseline)
        assert comparison.ok
        assert comparison.rows[0].regression == 0.0

    def test_the_error_suggests_rerecording_the_baseline(self):
        current = make_result({"run_seconds": 1.5})
        baseline = make_result({"run_seconds": 0.0})
        with pytest.raises(ConfigurationError, match="re-record the baseline"):
            compare(current, baseline)
