"""Tests for the passive network tap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.tap import Tap
from repro.exceptions import AnalysisError
from repro.network.link import CountingSink
from repro.padding.gateway import SenderGateway
from repro.padding.timer import ConstantInterval
from repro.traffic.packet import Packet


class TestTapBasics:
    def test_records_observation_times(self, simulator):
        tap = Tap(simulator)
        for t in (0.5, 1.0, 1.5):
            simulator.schedule_at(t, tap.observe, Packet(created_at=0.0))
        simulator.run()
        assert len(tap) == 3
        assert np.allclose(tap.timestamps, [0.5, 1.0, 1.5])
        assert np.allclose(tap.intervals(), [0.5, 0.5])

    def test_callable_interface(self, simulator):
        tap = Tap(simulator)
        tap(Packet(created_at=0.0))
        assert len(tap) == 1

    def test_intervals_since_discards_warmup(self, simulator):
        tap = Tap(simulator)
        for t in (1.0, 2.0, 10.0, 11.0, 12.0):
            simulator.schedule_at(t, tap.observe, Packet(created_at=0.0))
        simulator.run()
        assert np.allclose(tap.intervals(since=10.0), [1.0, 1.0])

    def test_intervals_need_two_observations(self, simulator):
        tap = Tap(simulator)
        assert tap.intervals().size == 0
        tap(Packet(created_at=0.0))
        assert tap.intervals().size == 0
        simulator.schedule_at(2.0, tap.observe, Packet(created_at=0.0))
        simulator.run()
        assert tap.intervals(since=1.0).size == 0
        assert np.array_equal(tap.intervals(), [2.0])

    def test_observed_rate(self, simulator):
        tap = Tap(simulator)
        for t in np.arange(0.0, 2.001, 0.01):
            simulator.schedule_at(float(t), tap.observe, Packet(created_at=0.0))
        simulator.run()
        assert tap.observed_rate_pps() == pytest.approx(100.0, rel=1e-6)

    def test_rate_requires_observations(self, simulator):
        with pytest.raises(AnalysisError):
            Tap(simulator).observed_rate_pps()

    def test_reset(self, simulator):
        tap = Tap(simulator)
        tap(Packet(created_at=0.0))
        tap.reset()
        assert len(tap) == 0

    def test_negative_capture_jitter_rejected(self, simulator):
        with pytest.raises(AnalysisError):
            Tap(simulator, capture_jitter_std=-1.0)


class TestCaptureJitter:
    def test_jitter_inflates_interval_variance(self, simulator, rng):
        clean = Tap(simulator)
        noisy = Tap(simulator, capture_jitter_std=1e-4, rng=rng)
        for t in np.arange(0.0, 10.0, 0.01):
            simulator.schedule_at(float(t), clean.observe, Packet(created_at=0.0))
            simulator.schedule_at(float(t), noisy.observe, Packet(created_at=0.0))
        simulator.run()
        assert np.std(noisy.intervals()) > np.std(clean.intervals())
        assert np.std(clean.intervals()) < 1e-9


class TestTapOnGatewayOutput:
    def test_tap_sees_exactly_the_padded_stream(self, simulator, streams):
        """Integration: tap at GW1 egress observes the padded (timer) rate."""
        receiver = CountingSink()
        tap = Tap(simulator)

        def egress(packet):
            tap.observe(packet)
            receiver(packet)

        gateway = SenderGateway(
            simulator, ConstantInterval(0.01), output=egress, rng=streams.get("gw")
        )
        gateway.start()
        simulator.run(until=10.0)
        assert len(tap) == receiver.total == gateway.packets_sent
        assert tap.observed_rate_pps() == pytest.approx(100.0, rel=0.02)

    def test_tap_ignores_packet_contents(self, simulator):
        """The tap must not read kind/flow_id: only timestamps are stored."""
        tap = Tap(simulator)
        tap(Packet(created_at=0.0, flow_id="secret-flow"))
        stored = tap.timestamps
        assert stored.dtype == float
        assert not hasattr(tap, "packets")
