"""Tests for the FIFO output-queued router."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NetworkError
from repro.network.link import CountingSink
from repro.network.router import Router
from repro.traffic.packet import Packet, PacketKind
from repro.traffic.sources import PoissonSource
from repro.units import serialization_delay


class TestRouterBasics:
    def test_forwards_in_fifo_order(self, simulator):
        sink = CountingSink()
        router = Router(simulator, sink, output_rate_bps=10e6)
        packets = [Packet(created_at=0.0, flow_id=str(i)) for i in range(5)]
        for packet in packets:
            router.receive(packet)
        simulator.run()
        assert [p.flow_id for p in sink.packets] == [str(i) for i in range(5)]
        assert router.packets_forwarded == 5

    def test_service_time_matches_link_rate(self, simulator):
        sink = CountingSink()
        router = Router(simulator, sink, output_rate_bps=10e6)
        router.receive(Packet(created_at=0.0, size_bytes=512))
        simulator.run()
        assert simulator.now == pytest.approx(float(serialization_delay(512, 10e6)))

    def test_processing_delay_added(self, simulator):
        sink = CountingSink()
        router = Router(simulator, sink, output_rate_bps=10e6, processing_delay=0.001)
        router.receive(Packet(created_at=0.0, size_bytes=512))
        simulator.run()
        expected = 0.001 + float(serialization_delay(512, 10e6))
        assert simulator.now == pytest.approx(expected)

    def test_queue_builds_under_overload_and_drops_at_capacity(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        # 1 Mbit/s output, 512-byte packets -> max ~244 pps; offered 2000 pps.
        router = Router(simulator, sink, output_rate_bps=1e6, max_queue_packets=50)
        source = PoissonSource(simulator, router.receive, rate=2000.0, rng=rng)
        source.start()
        simulator.run(until=2.0)
        assert router.packets_dropped > 0
        assert router.queue_depth <= 50
        assert router.counters.get("received") == router.packets_forwarded + router.packets_dropped + router.queue_depth

    def test_per_kind_counters(self, simulator):
        router = Router(simulator, CountingSink())
        router.receive(Packet(created_at=0.0, kind=PacketKind.CROSS))
        router.receive(Packet(created_at=0.0, kind=PacketKind.PAYLOAD))
        router.receive(Packet(created_at=0.0, kind=PacketKind.DUMMY))
        assert router.counters.get("received_cross") == 1
        assert router.counters.get("received_padded") == 2

    def test_validation(self, simulator):
        with pytest.raises(NetworkError):
            Router(simulator, "nope")
        with pytest.raises(NetworkError):
            Router(simulator, CountingSink(), output_rate_bps=0.0)
        with pytest.raises(NetworkError):
            Router(simulator, CountingSink(), max_queue_packets=0)
        with pytest.raises(NetworkError):
            Router(simulator, CountingSink(), processing_delay=-1.0)

    def test_utilization_requires_positive_window(self, simulator):
        router = Router(simulator, CountingSink())
        with pytest.raises(NetworkError):
            router.measured_utilization()


class TestRouterUtilization:
    def test_measured_utilization_tracks_offered_load(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        router = Router(simulator, sink, output_rate_bps=10e6)
        service = float(serialization_delay(512, 10e6))
        target_utilization = 0.3
        rate = target_utilization / service
        source = PoissonSource(simulator, router.receive, rate=rate, rng=rng)
        source.start()
        simulator.run(until=30.0)
        assert router.measured_utilization() == pytest.approx(target_utilization, rel=0.05)

    def test_queueing_perturbs_interarrival_times(self, simulator, rng):
        """Cross traffic sharing the output port adds PIAT jitter (delta_net)."""
        piat_std = {}
        for cross_rate in (0.0, 3000.0):
            egress = []

            class _EgressRecorder:
                def __init__(self, sim, kept):
                    self.sim = sim
                    self.kept = kept

                def __call__(self, packet):
                    if packet.kind is not PacketKind.CROSS:
                        self.kept.append(self.sim.now)

            router = Router(simulator, _EgressRecorder(simulator, egress), output_rate_bps=50e6)
            start = simulator.now
            # Perfectly periodic padded stream at 100 pps entering the router.
            for i in range(2000):
                at = start + 0.01 * (i + 1)
                simulator.schedule_at(
                    at, router.receive, Packet(created_at=at, kind=PacketKind.DUMMY)
                )
            cross_source = None
            if cross_rate:
                cross_source = PoissonSource(
                    simulator, router.receive, rate=cross_rate, rng=rng, kind=PacketKind.CROSS
                )
                cross_source.start()
            simulator.run(until=start + 21.0)
            if cross_source:
                cross_source.stop()
            piat_std[cross_rate] = float(np.std(np.diff(egress)))
        # Without cross traffic the padded stream stays essentially periodic;
        # a ~25% utilization cross load adds clearly measurable jitter.
        assert piat_std[0.0] < 1e-6
        assert piat_std[3000.0] > 5 * piat_std[0.0]
        assert piat_std[3000.0] > 1e-5
