"""Tests for cross-traffic generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NetworkError, TrafficError
from repro.network.crosstraffic import CrossTrafficGenerator
from repro.network.link import CountingSink
from repro.network.topology import cross_traffic_rate_for_utilization
from repro.traffic.packet import PacketKind
from repro.units import serialization_delay


class TestRateForUtilization:
    def test_accounts_for_padded_stream(self):
        link_rate = 50e6
        padded = 100.0
        rate = cross_traffic_rate_for_utilization(0.4, link_rate, 512, padded_rate_pps=padded)
        total = rate + padded
        assert total * float(serialization_delay(512, link_rate)) == pytest.approx(0.4)

    def test_zero_padded_stream(self):
        rate = cross_traffic_rate_for_utilization(0.2, 10e6, 512)
        assert rate * float(serialization_delay(512, 10e6)) == pytest.approx(0.2)

    def test_padded_exceeding_target_rejected(self):
        with pytest.raises(NetworkError):
            cross_traffic_rate_for_utilization(0.0001, 50e6, 512, padded_rate_pps=100.0)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(NetworkError):
            cross_traffic_rate_for_utilization(1.0, 10e6, 512)
        with pytest.raises(NetworkError):
            cross_traffic_rate_for_utilization(-0.1, 10e6, 512)


class TestCrossTrafficGenerator:
    def test_packets_are_cross_kind(self, simulator, rng):
        sink = CountingSink()
        generator = CrossTrafficGenerator(simulator, sink, rate=500.0, rng=rng)
        generator.start()
        simulator.run(until=2.0)
        generator.stop()
        assert sink.total > 0
        assert all(p.kind is PacketKind.CROSS for p in sink.packets)
        assert generator.packets_emitted == sink.total

    def test_rate_matches_target(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        generator = CrossTrafficGenerator(simulator, sink, rate=1000.0, rng=rng)
        generator.start()
        simulator.run(until=20.0)
        assert sink.total / 20.0 == pytest.approx(1000.0, rel=0.05)

    def test_arrivals_are_poisson(self, simulator, rng):
        """Cross traffic is Poisson only: exponential gaps, std ~= mean."""
        sink = CountingSink()
        CrossTrafficGenerator(simulator, sink, rate=200.0, rng=rng).start()
        simulator.run(until=50.0)
        gaps = np.diff([p.created_at for p in sink.packets])
        assert np.std(gaps) == pytest.approx(np.mean(gaps), rel=0.1)

    def test_stop_halts_injection(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        generator = CrossTrafficGenerator(simulator, sink, rate=500.0, rng=rng)
        generator.start()
        simulator.run(until=1.0)
        generator.stop()
        injected = sink.total
        simulator.run(until=3.0)
        assert injected > 0
        assert sink.total == injected == generator.packets_emitted

    def test_packets_carry_size_and_flow_label(self, simulator, rng):
        sink = CountingSink()
        CrossTrafficGenerator(
            simulator, sink, rate=100.0, rng=rng, packet_size_bytes=1500, flow_id="hop-2"
        ).start()
        simulator.run(until=1.0)
        assert sink.total > 0
        assert {(p.size_bytes, p.flow_id) for p in sink.packets} == {(1500, "hop-2")}

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_invalid_rate_rejected(self, simulator, rng, rate):
        with pytest.raises(TrafficError):
            CrossTrafficGenerator(simulator, CountingSink(), rate=rate, rng=rng)
