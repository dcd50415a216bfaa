"""Tests for the end-to-end unprotected path."""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError
from repro.network.link import CountingSink
from repro.network.path import UnprotectedPath
from repro.traffic.packet import Packet, PacketKind
from repro.units import serialization_delay


def inject_periodic_padded_stream(simulator, entry, n_packets=500, interval=0.01, start=0.0):
    for i in range(n_packets):
        at = start + interval * (i + 1)
        simulator.schedule_at(at, entry, Packet(created_at=at, kind=PacketKind.DUMMY))


class TestConstruction:
    def test_single_hop_delivers_everything(self, simulator):
        exit_sink = CountingSink()
        path = UnprotectedPath(simulator, exit_sink, n_hops=1)
        inject_periodic_padded_stream(simulator, path.entry, n_packets=100)
        simulator.run()
        assert exit_sink.total == 100
        assert path.padded_packets_delivered() == 100
        assert path.total_drops() == 0

    def test_zero_hop_path_is_a_passthrough(self, simulator):
        exit_sink = CountingSink()
        path = UnprotectedPath(simulator, exit_sink, n_hops=0)
        path.entry(Packet(created_at=0.0))
        assert exit_sink.total == 1
        with pytest.raises(NetworkError):
            path.add_observer(0, lambda p: None)
        with pytest.raises(NetworkError):
            path.padded_packets_delivered()

    def test_multi_hop_propagation_delay_accumulates(self, simulator):
        exit_sink = CountingSink()
        n_hops = 5
        path = UnprotectedPath(
            simulator, exit_sink, n_hops=n_hops, propagation_delay=1e-3, link_rate_bps=1e9
        )
        path.entry(Packet(created_at=0.0, size_bytes=512))
        simulator.run()
        assert exit_sink.total == 1
        # Each hop: serialization (~4.1 us at 1 Gbit/s) + 1 ms propagation.
        assert simulator.now == pytest.approx(n_hops * 1e-3, rel=0.05)

    def test_a_hop_delays_by_one_service_time_plus_propagation(self, simulator):
        """The tandem-FIFO kernel's per-hop step: serialise once, then propagate."""
        exit_sink = CountingSink()
        path = UnprotectedPath(
            simulator, exit_sink, n_hops=1, propagation_delay=1e-3, link_rate_bps=20e6
        )
        path.entry(Packet(created_at=0.0, size_bytes=512))
        simulator.run()
        assert exit_sink.total == 1
        assert simulator.now == float(serialization_delay(512, 20e6)) + 1e-3

    def test_per_hop_link_rates(self, simulator):
        path = UnprotectedPath(
            simulator, CountingSink(), n_hops=2, link_rate_bps=[10e6, 100e6]
        )
        assert path.routers[0].output_rate_bps == 10e6
        assert path.routers[1].output_rate_bps == 100e6

    def test_validation(self, simulator):
        with pytest.raises(NetworkError):
            UnprotectedPath(simulator, CountingSink(), n_hops=-1)
        with pytest.raises(NetworkError):
            UnprotectedPath(simulator, "nope", n_hops=1)
        with pytest.raises(NetworkError):
            UnprotectedPath(simulator, CountingSink(), n_hops=2, link_rate_bps=[10e6])


class TestObservers:
    def test_observer_sees_every_padded_packet(self, simulator):
        exit_sink = CountingSink()
        path = UnprotectedPath(simulator, exit_sink, n_hops=2)
        seen = []
        path.add_observer(1, lambda p: seen.append(p.packet_id))
        inject_periodic_padded_stream(simulator, path.entry, n_packets=50)
        simulator.run()
        assert len(seen) == 50
        assert exit_sink.total == 50

    def test_observer_at_intermediate_hop(self, simulator):
        exit_sink = CountingSink()
        path = UnprotectedPath(simulator, exit_sink, n_hops=3)
        hop0, hop2 = [], []
        path.add_observer(0, lambda p: hop0.append(simulator.now))
        path.add_observer(2, lambda p: hop2.append(simulator.now))
        inject_periodic_padded_stream(simulator, path.entry, n_packets=20)
        simulator.run()
        assert len(hop0) == len(hop2) == 20
        # Downstream observations happen strictly later than upstream ones.
        assert all(b > a for a, b in zip(hop0, hop2))

    def test_invalid_observer_registration(self, simulator):
        path = UnprotectedPath(simulator, CountingSink(), n_hops=2)
        with pytest.raises(NetworkError):
            path.add_observer(2, lambda p: None)
        with pytest.raises(NetworkError):
            path.add_observer(0, "nope")


class TestCrossTrafficIntegration:
    def test_cross_traffic_never_reaches_exit(self, simulator, streams):
        exit_sink = CountingSink()
        path = UnprotectedPath(simulator, exit_sink, n_hops=2)
        path.attach_cross_traffic(0, 500.0, rng=streams.get("cross0"))
        path.attach_cross_traffic(1, 500.0, rng=streams.get("cross1"))
        path.start_cross_traffic()
        inject_periodic_padded_stream(simulator, path.entry, n_packets=200)
        simulator.run(until=3.0)
        path.stop_cross_traffic()
        assert all(p.kind is not PacketKind.CROSS for p in exit_sink.packets)
        assert exit_sink.total == 200
        # Cross packets were absorbed by the per-hop cross destinations.
        assert sum(s.packets_discarded for s in path.cross_sinks) > 0

    def test_cross_traffic_increases_measured_utilization(self, simulator, streams):
        results = {}
        for label, rate in (("idle", 0.0), ("loaded", 3000.0)):
            exit_sink = CountingSink(keep_packets=False)
            path = UnprotectedPath(simulator, exit_sink, n_hops=1, link_rate_bps=50e6)
            if rate:
                path.attach_cross_traffic(0, rate, rng=streams.get(f"cross-{label}"))
                path.start_cross_traffic()
            start = simulator.now
            inject_periodic_padded_stream(simulator, path.entry, n_packets=500, start=start)
            simulator.run(until=start + 5.5)
            path.stop_cross_traffic()
            results[label] = path.routers[0].measured_utilization(over_time=5.5)
        assert results["loaded"] > results["idle"] + 0.1

    def test_cross_traffic_on_a_missing_hop_is_refused(self, simulator, streams):
        path = UnprotectedPath(simulator, CountingSink(), n_hops=2)
        path.attach_cross_traffic(1, 100.0, rng=streams.get("x"))
        with pytest.raises(NetworkError):
            path.attach_cross_traffic(5, 100.0, rng=streams.get("y"))

    def test_cross_traffic_loads_only_its_own_hop(self, simulator, streams):
        path = UnprotectedPath(simulator, CountingSink(keep_packets=False), n_hops=2)
        path.attach_cross_traffic(0, 2000.0, rng=streams.get("z"))
        path.start_cross_traffic()
        inject_periodic_padded_stream(simulator, path.entry, n_packets=100)
        simulator.run(until=2.0)
        first, second = (router.measured_utilization() for router in path.routers)
        assert first > second
