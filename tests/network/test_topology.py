"""Tests for the topology presets."""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError
from repro.network import campus_topology, lab_topology, wan_topology
from repro.network.topology import TopologySpec


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

