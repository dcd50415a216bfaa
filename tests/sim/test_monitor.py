"""Tests for simulation monitors (counters and time series)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.monitor import CounterMonitor, TimeSeriesMonitor


class TestCounterMonitor:
    def test_counters_start_at_zero(self):
        assert CounterMonitor().get("anything") == 0

    def test_increment_default_and_amount(self):
        counters = CounterMonitor()
        counters.increment("sent")
        counters.increment("sent", 4)
        assert counters.get("sent") == 5

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            CounterMonitor().increment("sent", -1)

    def test_as_dict_snapshot_and_reset(self):
        counters = CounterMonitor()
        counters.increment("a")
        snapshot = counters.as_dict()
        counters.increment("a")
        assert snapshot == {"a": 1}
        counters.reset()
        assert counters.get("a") == 0


class TestTimeSeriesMonitor:
    def test_records_and_exposes_arrays(self):
        series = TimeSeriesMonitor("queue")
        series.record(0.0, 1.0)
        series.record(1.0, 3.0)
        assert len(series) == 2
        assert np.array_equal(series.times, [0.0, 1.0])
        assert np.array_equal(series.values, [1.0, 3.0])

    def test_out_of_order_rejected(self):
        series = TimeSeriesMonitor()
        series.record(2.0, 1.0)
        with pytest.raises(ValueError):
            series.record(1.0, 1.0)

    def test_mean_and_maximum(self):
        series = TimeSeriesMonitor()
        for t, v in [(0.0, 2.0), (1.0, 4.0), (2.0, 6.0)]:
            series.record(t, v)
        assert series.mean() == pytest.approx(4.0)
        assert series.maximum() == 6.0

    def test_time_average_is_step_weighted(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 0.0)
        series.record(1.0, 10.0)
        # value 0 holds for 1 s, value 10 holds for 3 s
        assert series.time_average(until=4.0) == pytest.approx(7.5)

    def test_time_average_until_before_last_rejected(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 1.0)
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.time_average(until=2.0)

    def test_empty_monitor_raises(self):
        series = TimeSeriesMonitor()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.maximum()
        with pytest.raises(ValueError):
            series.time_average()

    def test_reset(self):
        series = TimeSeriesMonitor()
        series.record(0.0, 1.0)
        series.reset()
        assert len(series) == 0

