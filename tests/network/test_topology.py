"""Tests for topology presets and path building."""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError
from repro.network import (
    CountingSink,
    build_path,
    campus_topology,
    lab_topology,
    wan_topology,
)
from repro.network.topology import TopologySpec
from repro.sim import RandomStreams
from repro.traffic import Packet, PacketKind


class TestPresets:
    def test_lab_is_single_hop(self):
        spec = lab_topology(cross_utilization=0.3)
        assert spec.n_hops == 1
        assert spec.cross_utilization == 0.3
        assert spec.diurnal_peak_utilization is None

    def test_campus_and_wan_hop_counts(self):
        assert campus_topology().n_hops == 3
        assert wan_topology().n_hops == 15
        assert wan_topology().diurnal_peak_utilization > campus_topology().diurnal_peak_utilization

    def test_hop_service_time(self):
        spec = lab_topology()
        assert spec.hop_service_time == pytest.approx(512 * 8 / spec.link_rate_bps)

    def test_cross_rate_accounts_for_padded_stream(self):
        spec = lab_topology(cross_utilization=0.4)
        total_rate = spec.cross_rate_pps() + spec.padded_rate_pps
        assert total_rate * spec.hop_service_time == pytest.approx(0.4)

    def test_zero_utilization_has_zero_cross_rate(self):
        assert lab_topology(cross_utilization=0.0).cross_rate_pps() == 0.0

    def test_spec_validation(self):
        with pytest.raises(NetworkError):
            TopologySpec(name="bad", n_hops=-1)
        with pytest.raises(NetworkError):
            TopologySpec(name="bad", n_hops=1, link_rate_bps=0.0)
        with pytest.raises(NetworkError):
            TopologySpec(name="bad", n_hops=1, cross_utilization=1.0)
        with pytest.raises(NetworkError):
            TopologySpec(name="bad", n_hops=1, diurnal_peak_utilization=1.5)


class TestBuildPath:
    def test_lab_build_attaches_one_cross_generator(self, simulator):
        spec = lab_topology(cross_utilization=0.2)
        path = build_path(spec, simulator, CountingSink(), RandomStreams(seed=1))
        assert path.n_hops == 1
        assert len(path.cross_generators) == 1

    def test_zero_load_lab_has_no_cross_generators(self, simulator):
        path = build_path(lab_topology(0.0), simulator, CountingSink(), RandomStreams(seed=1))
        assert path.cross_generators == []

    def test_wan_build_attaches_generator_per_hop(self, simulator):
        spec = wan_topology()
        path = build_path(spec, simulator, CountingSink(), RandomStreams(seed=1))
        assert len(path.cross_generators) == spec.n_hops

    def test_built_path_carries_padded_traffic_end_to_end(self, simulator):
        exit_sink = CountingSink()
        spec = campus_topology()
        path = build_path(spec, simulator, exit_sink, RandomStreams(seed=2))
        path.start_cross_traffic()
        for i in range(100):
            at = 0.01 * (i + 1)
            simulator.schedule_at(at, path.entry, Packet(created_at=at, kind=PacketKind.DUMMY))
        simulator.run(until=2.0)
        path.stop_cross_traffic()
        assert exit_sink.total == 100

    def test_builds_are_reproducible_given_seed(self, simulator):
        spec = lab_topology(cross_utilization=0.3)
        sink_a, sink_b = CountingSink(keep_packets=False), CountingSink(keep_packets=False)
        # Two identical builds driven from identically seeded stream registries
        # inject the same number of cross packets over the same horizon.
        counts = []
        for sink in (sink_a, sink_b):
            from repro.sim import Simulator

            sim = Simulator()
            path = build_path(spec, sim, sink, RandomStreams(seed=77))
            path.start_cross_traffic()
            sim.run(until=5.0)
            counts.append(path.cross_generators[0].packets_emitted)
        assert counts[0] == counts[1]
