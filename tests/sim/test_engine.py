"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_initial_time_is_zero(self, simulator):
        assert simulator.now == 0.0
        assert simulator.processed_events == 0
        assert simulator.pending_events == 0

    def test_custom_start_time(self):
        sim = Simulator(start_time=5.0)
        assert sim.now == 5.0

    def test_events_fire_in_time_order(self, simulator):
        fired = []
        simulator.schedule(3.0, fired.append, "c")
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(2.0, fired.append, "b")
        simulator.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self, simulator):
        times = []
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.schedule(4.0, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [1.5, 4.0]

    def test_same_time_events_fire_in_scheduling_order(self, simulator):
        fired = []
        for label in "abcde":
            simulator.schedule(1.0, fired.append, label)
        simulator.run()
        assert fired == list("abcde")

    def test_priority_breaks_ties_before_sequence(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "late", priority=5)
        simulator.schedule(1.0, fired.append, "early", priority=-5)
        simulator.run()
        assert fired == ["early", "late"]

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SchedulingError):
            simulator.schedule(-0.1, lambda: None)

    def test_nan_time_rejected(self, simulator):
        with pytest.raises(SchedulingError):
            simulator.schedule_at(float("nan"), lambda: None)

    def test_infinite_time_rejected(self, simulator):
        with pytest.raises(SchedulingError):
            simulator.schedule_at(float("inf"), lambda: None)

    def test_non_callable_rejected(self, simulator):
        with pytest.raises(TypeError):
            simulator.schedule(1.0, "not callable")

    def test_schedule_at_absolute_time(self, simulator):
        fired = []
        simulator.schedule_at(2.5, fired.append, "x")
        simulator.run()
        assert fired == ["x"]
        assert simulator.now == 2.5


class TestRun:
    def test_run_until_horizon_leaves_future_events(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(10.0, fired.append, "b")
        simulator.run(until=5.0)
        assert fired == ["a"]
        assert simulator.now == 5.0
        assert simulator.pending_events == 1

    def test_run_can_be_resumed(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(10.0, fired.append, "b")
        simulator.run(until=5.0)
        simulator.run(until=20.0)
        assert fired == ["a", "b"]

    def test_run_without_horizon_drains_heap(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.run()
        assert simulator.pending_events == 0

    def test_horizon_before_now_rejected(self, simulator):
        simulator.schedule(3.0, lambda: None)
        simulator.run(until=3.0)
        with pytest.raises(SchedulingError):
            simulator.run(until=1.0)

    def test_events_scheduled_during_run_are_processed(self, simulator):
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                simulator.schedule(1.0, chain, depth + 1)

        simulator.schedule(1.0, chain, 0)
        simulator.run()
        assert fired == [0, 1, 2, 3]
        assert simulator.now == 4.0

    def test_max_events_guard(self):
        sim = Simulator(max_events=10)

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run(until=1e9)

    def test_step_processes_single_event(self, simulator):
        fired = []
        simulator.schedule(1.0, fired.append, "a")
        simulator.schedule(2.0, fired.append, "b")
        assert simulator.step() is True
        assert fired == ["a"]
        assert simulator.step() is True
        assert simulator.step() is False

    def test_step_honours_the_max_events_guard(self):
        sim = Simulator(max_events=3)

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        for _ in range(3):
            assert sim.step() is True
        with pytest.raises(SimulationError):
            sim.step()

    def test_step_inside_run_is_rejected(self, simulator):
        fired = []

        def nested():
            simulator.step()

        simulator.schedule(1.0, nested)
        simulator.schedule(5.0, fired.append, "late")
        with pytest.raises(SimulationError, match="re-entrant"):
            simulator.run()
        # The later event never fired early and the clock did not jump ahead.
        assert fired == []
        assert simulator.now == 1.0

    def test_step_inside_step_is_rejected(self, simulator):
        simulator.schedule(1.0, simulator.step)
        simulator.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError, match="re-entrant"):
            simulator.step()
        assert simulator.now == 1.0
        assert simulator.step() is True  # the guard resets after the error

    def test_processed_event_counter(self, simulator):
        for i in range(5):
            simulator.schedule(float(i + 1), lambda: None)
        simulator.run()
        assert simulator.processed_events == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        event = simulator.schedule(1.0, fired.append, "a")
        simulator.cancel(event)
        simulator.run()
        assert fired == []

    def test_cancel_is_idempotent(self, simulator):
        event = simulator.schedule(1.0, lambda: None)
        simulator.cancel(event)
        simulator.cancel(event)
        simulator.run()

    def test_drain_cancelled_removes_only_cancelled(self, simulator):
        keep = simulator.schedule(1.0, lambda: None)
        drop = simulator.schedule(2.0, lambda: None)
        drop.cancel()
        removed = simulator.drain_cancelled()
        assert removed == 1
        assert simulator.pending_events == 1
        assert not keep.cancelled


class TestPropertyBased:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_fire_order_matches_sorted_delays(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: observed.append(d))
        sim.run()
        assert observed == sorted(delays)
        assert sim.now == max(delays)

    @given(delays=st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_clock_never_moves_backwards(self, delays):
        sim = Simulator()
        clock_samples = []
        for delay in delays:
            sim.schedule(delay, lambda: clock_samples.append(sim.now))
        sim.run()
        assert all(b >= a for a, b in zip(clock_samples, clock_samples[1:]))
