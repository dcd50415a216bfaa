"""Tests for traffic sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TrafficError
from repro.traffic.packet import PacketKind
from repro.traffic.sources import CBRSource, PoissonSource


class Collector:
    """Sink recording every packet it receives."""

    def __init__(self):
        self.packets = []

    def __call__(self, packet):
        self.packets.append(packet)

    @property
    def times(self):
        return np.array([p.created_at for p in self.packets])


class TestCBRSource:
    def test_emits_at_exact_rate(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=10.0, rng=rng)
        source.start(initial_delay=0.1)
        simulator.run(until=10.0)
        assert len(sink.packets) == 100
        gaps = np.diff(sink.times)
        assert np.allclose(gaps, 0.1)

    def test_packets_carry_flow_and_kind(self, simulator, rng):
        sink = Collector()
        source = CBRSource(
            simulator, sink, rate=5.0, rng=rng, flow_id="cross-1", kind=PacketKind.CROSS
        )
        source.start()
        simulator.run(until=1.0)
        assert sink.packets
        assert all(p.flow_id == "cross-1" for p in sink.packets)
        assert all(p.kind is PacketKind.CROSS for p in sink.packets)

    def test_stop_halts_emission(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=100.0, rng=rng)
        source.start()
        simulator.run(until=0.5)
        count = len(sink.packets)
        source.stop()
        simulator.run(until=2.0)
        assert len(sink.packets) == count
        assert not source.active

    def test_zero_rate_idles_without_emitting(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=0.0, rng=rng, idle_poll_interval=0.05)
        source.start()
        simulator.run(until=1.0)
        assert sink.packets == []
        assert source.active

    def test_non_callable_sink_rejected(self, simulator, rng):
        with pytest.raises(TrafficError):
            CBRSource(simulator, "not-a-sink", rate=1.0, rng=rng)

    def test_packet_counter(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=50.0, rng=rng)
        source.start()
        simulator.run(until=1.0)
        assert source.packets_emitted == len(sink.packets)


class TestPoissonSource:
    def test_mean_rate_matches_target(self, simulator, rng):
        sink = Collector()
        source = PoissonSource(simulator, sink, rate=200.0, rng=rng)
        source.start()
        simulator.run(until=50.0)
        observed_rate = len(sink.packets) / 50.0
        assert observed_rate == pytest.approx(200.0, rel=0.05)

    def test_gaps_are_exponential_like(self, simulator, rng):
        sink = Collector()
        source = PoissonSource(simulator, sink, rate=100.0, rng=rng)
        source.start()
        simulator.run(until=100.0)
        gaps = np.diff(sink.times)
        # Exponential distribution: std ~= mean.
        assert np.std(gaps) == pytest.approx(np.mean(gaps), rel=0.1)

    def test_zero_rate_emits_nothing(self, simulator, rng):
        sink = Collector()
        source = PoissonSource(simulator, sink, rate=0.0, rng=rng, idle_poll_interval=0.1)
        source.start()
        simulator.run(until=5.0)
        assert len(sink.packets) == 0


@pytest.mark.parametrize("source_cls", [CBRSource, PoissonSource])
def test_negative_rate_rejected(simulator, rng, source_cls):
    with pytest.raises(TrafficError, match="rate must be >= 0"):
        source_cls(simulator, Collector(), rate=-5.0, rng=rng)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("source_cls", [CBRSource, PoissonSource])
def test_non_finite_rate_rejected(simulator, rng, source_cls, rate):
    """Regression: an infinite rate used to pass and flood (or stall) the engine."""
    with pytest.raises(TrafficError, match="rate must be >= 0 and finite"):
        source_cls(simulator, Collector(), rate=rate, rng=rng)


@pytest.mark.parametrize("interval", [0.0, -0.1, float("nan"), float("inf")])
def test_bad_idle_poll_interval_rejected(simulator, rng, interval):
    with pytest.raises(TrafficError, match="idle_poll_interval"):
        CBRSource(simulator, Collector(), rate=0.0, rng=rng, idle_poll_interval=interval)


def test_fractional_rate_keeps_exact_gaps(simulator, rng):
    """Sources take any float rate: 12.5 pps emits every 80 ms."""
    sink = Collector()
    CBRSource(simulator, sink, rate=12.5, rng=rng).start(initial_delay=0.08)
    simulator.run(until=8.04)  # half a gap past the 100th emission
    assert len(sink.packets) == 100
    assert np.allclose(np.diff(sink.times), 0.08)


@pytest.mark.parametrize("rate", [10.0, 200.0])
def test_poisson_gaps_are_one_draw_each_from_the_stream(simulator, rate):
    """The RNG-stream contract the capture kernel replays: one exponential per gap."""
    sink = Collector()
    PoissonSource(simulator, sink, rate=rate, rng=np.random.default_rng(5)).start()
    simulator.run(until=5.0)
    expected = np.cumsum(
        np.maximum(np.random.default_rng(5).exponential(1.0 / rate, len(sink.packets)), 1e-12)
    )
    assert len(sink.packets) > 0
    assert np.array_equal(sink.times, expected)
