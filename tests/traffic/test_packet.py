"""Tests for the packet model."""

from __future__ import annotations

import pytest

from repro.traffic.packet import Packet, PacketKind


class TestPacket:
    def test_defaults(self):
        packet = Packet(created_at=1.0)
        assert packet.kind is PacketKind.PAYLOAD
        assert packet.is_payload
        assert not packet.is_dummy
        assert packet.size_bytes > 0

    def test_unique_ids(self):
        a = Packet(created_at=0.0)
        b = Packet(created_at=0.0)
        assert a.packet_id != b.packet_id

    def test_dummy_flag(self):
        packet = Packet(created_at=0.0, kind=PacketKind.DUMMY)
        assert packet.is_dummy
        assert not packet.is_payload

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(created_at=0.0, size_bytes=0)

    def test_negative_creation_time_rejected(self):
        with pytest.raises(ValueError):
            Packet(created_at=-1.0)

    def test_latency_requires_reception(self):
        packet = Packet(created_at=1.0)
        with pytest.raises(ValueError):
            _ = packet.latency
        packet.received_at = 1.5
        assert packet.latency == pytest.approx(0.5)
