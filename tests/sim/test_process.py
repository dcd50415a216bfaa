"""Tests for the periodic-process helper."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.sim.process import PeriodicProcess


class TestPeriodicProcess:
    def test_constant_interval_activations(self, simulator):
        times = []
        process = PeriodicProcess(simulator, lambda: 1.0, times.append)
        process.start()
        simulator.run(until=5.5)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert process.activations == 5

    def test_explicit_initial_delay(self, simulator):
        times = []
        process = PeriodicProcess(simulator, lambda: 1.0, times.append)
        process.start(initial_delay=0.25)
        simulator.run(until=2.5)
        assert times == [0.25, 1.25, 2.25]

    def test_stop_halts_activations(self, simulator):
        times = []
        process = PeriodicProcess(simulator, lambda: 1.0, times.append)
        process.start()
        simulator.run(until=2.5)
        process.stop()
        simulator.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not process.active

    def test_stop_is_idempotent(self, simulator):
        process = PeriodicProcess(simulator, lambda: 1.0, lambda t: None)
        process.start()
        process.stop()
        process.stop()

    def test_double_start_rejected(self, simulator):
        process = PeriodicProcess(simulator, lambda: 1.0, lambda t: None)
        process.start()
        with pytest.raises(SimulationError):
            process.start()

    def test_restart_after_stop_is_allowed(self, simulator):
        times = []
        process = PeriodicProcess(simulator, lambda: 1.0, times.append)
        process.start()
        simulator.run(until=1.5)
        process.stop()
        process.start()
        simulator.run(until=3.0)
        assert times == [1.0, 2.5]

    def test_non_positive_interval_raises(self, simulator):
        process = PeriodicProcess(simulator, lambda: 0.0, lambda t: None)
        with pytest.raises(SimulationError):
            process.start()

    def test_negative_initial_delay_rejected(self, simulator):
        process = PeriodicProcess(simulator, lambda: 1.0, lambda t: None)
        with pytest.raises(SimulationError):
            process.start(initial_delay=-1.0)

    def test_action_may_stop_the_process(self, simulator):
        times = []

        def action(now):
            times.append(now)
            if len(times) == 3:
                process.stop()

        process = PeriodicProcess(simulator, lambda: 1.0, action)
        process.start()
        simulator.run(until=100.0)
        assert times == [1.0, 2.0, 3.0]

    def test_stochastic_intervals_consume_generator(self, simulator, rng):
        times = []
        process = PeriodicProcess(
            simulator, lambda: float(rng.exponential(0.1)) + 1e-9, times.append
        )
        process.start()
        simulator.run(until=10.0)
        # ~100 activations expected; allow a broad band.
        assert 40 < len(times) < 250
        assert all(b > a for a, b in zip(times, times[1:]))
