"""Tests for links and elementary sinks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NetworkError
from repro.network.link import CountingSink, Demux, Link, NullSink
from repro.traffic.packet import Packet, PacketKind


class TestLink:
    def test_propagation_delay_applied(self, simulator):
        sink = CountingSink()
        link = Link(simulator, sink, propagation_delay=0.005)
        simulator.schedule(1.0, lambda: link.send(Packet(created_at=1.0)))
        simulator.run()
        assert sink.total == 1
        assert simulator.now == pytest.approx(1.005)

    def test_zero_delay_delivers_immediately(self, simulator):
        sink = CountingSink()
        link = Link(simulator, sink)
        link.send(Packet(created_at=0.0))
        assert sink.total == 1

    def test_back_to_back_packets_are_not_serialised(self, simulator):
        """A link only delays: serialisation belongs to the router in front."""
        arrivals = []
        link = Link(simulator, lambda packet: arrivals.append(simulator.now), 0.005)
        link.send(Packet(created_at=0.0))
        link.send(Packet(created_at=0.0))
        simulator.run()
        assert arrivals == [0.005, 0.005]

    def test_counts_carried_packets(self, simulator):
        link = Link(simulator, NullSink())
        for _ in range(5):
            link(Packet(created_at=0.0))
        assert link.packets_carried == 5

    def test_validation(self, simulator):
        with pytest.raises(NetworkError):
            Link(simulator, "nope")
        with pytest.raises(NetworkError):
            Link(simulator, NullSink(), propagation_delay=-1.0)


class TestSinks:
    def test_null_sink_counts(self):
        sink = NullSink()
        sink(Packet(created_at=0.0))
        sink(Packet(created_at=0.0))
        assert sink.packets_discarded == 2

    def test_counting_sink_per_kind_counts(self):
        sink = CountingSink()
        sink(Packet(created_at=0.0, kind=PacketKind.PAYLOAD))
        sink(Packet(created_at=0.0, kind=PacketKind.DUMMY))
        sink(Packet(created_at=0.0, kind=PacketKind.CROSS))
        sink(Packet(created_at=0.0, kind=PacketKind.CROSS))
        assert sink.counts[PacketKind.PAYLOAD] == 1
        assert sink.counts[PacketKind.DUMMY] == 1
        assert sink.counts[PacketKind.CROSS] == 2
        assert sink.total == 4

    def test_counting_sink_without_storage(self):
        sink = CountingSink(keep_packets=False)
        sink(Packet(created_at=0.0))
        assert sink.total == 1
        assert sink.packets == []

    def test_arrival_times(self):
        sink = CountingSink()
        sink(Packet(created_at=0.5))
        sink(Packet(created_at=1.5))
        assert np.allclose(sink.arrival_times(), [0.5, 1.5])


class TestDemux:
    def test_routes_by_kind(self):
        padded = CountingSink()
        cross = CountingSink()
        demux = Demux(padded_sink=padded, cross_sink=cross)
        demux(Packet(created_at=0.0, kind=PacketKind.PAYLOAD))
        demux(Packet(created_at=0.0, kind=PacketKind.DUMMY))
        demux(Packet(created_at=0.0, kind=PacketKind.CROSS))
        assert padded.total == 2
        assert cross.total == 1
        assert demux.padded_packets == 2
        assert demux.cross_packets == 1

    def test_default_cross_sink_is_null(self):
        demux = Demux(padded_sink=CountingSink())
        demux(Packet(created_at=0.0, kind=PacketKind.CROSS))
        assert demux.cross_sink.packets_discarded == 1

    def test_validation(self):
        with pytest.raises(NetworkError):
            Demux(padded_sink="nope")
        with pytest.raises(NetworkError):
            Demux(padded_sink=CountingSink(), cross_sink="nope")
