"""Tests for the receiver gateway (GW2)."""

from __future__ import annotations

import pytest

from repro.exceptions import PaddingError
from repro.network.link import CountingSink
from repro.padding.gateway import SenderGateway
from repro.padding.receiver import ReceiverGateway
from repro.padding.timer import ConstantInterval
from repro.traffic.packet import Packet, PacketKind
from repro.traffic.sources import CBRSource


class TestReceiverGateway:
    def test_strips_dummies_and_forwards_payload(self, simulator):
        destination = CountingSink()
        receiver = ReceiverGateway(simulator, destination=destination)
        receiver.accept(Packet(created_at=0.0, kind=PacketKind.DUMMY))
        receiver.accept(Packet(created_at=0.0, kind=PacketKind.PAYLOAD))
        assert receiver.dummies_discarded == 1
        assert receiver.payload_delivered == 1
        assert destination.total == 1
        assert destination.packets[0].is_payload

    def test_callable_interface(self, simulator):
        receiver = ReceiverGateway(simulator)
        receiver(Packet(created_at=0.0, kind=PacketKind.DUMMY))
        assert receiver.dummies_discarded == 1

    def test_goodput_fraction(self, simulator):
        receiver = ReceiverGateway(simulator)
        for _ in range(3):
            receiver.accept(Packet(created_at=0.0, kind=PacketKind.DUMMY))
        receiver.accept(Packet(created_at=0.0, kind=PacketKind.PAYLOAD))
        assert receiver.goodput_fraction == pytest.approx(0.25)

    def test_goodput_before_any_packet_raises(self, simulator):
        with pytest.raises(PaddingError):
            _ = ReceiverGateway(simulator).goodput_fraction

    def test_invalid_destination_rejected(self, simulator):
        with pytest.raises(PaddingError):
            ReceiverGateway(simulator, destination="nope")

    def test_latency_is_recorded(self, simulator):
        receiver = ReceiverGateway(simulator)
        simulator.schedule(1.0, lambda: receiver.accept(Packet(created_at=0.25)))
        simulator.run()
        assert receiver.mean_payload_latency() == pytest.approx(0.75)


class TestEndToEnd:
    def test_sender_to_receiver_conserves_payload(self, simulator, streams):
        """Integration: payload in equals payload out; dummies never leak through."""
        destination = CountingSink()
        receiver = ReceiverGateway(simulator, destination=destination)
        gateway = SenderGateway(
            simulator,
            ConstantInterval(0.01),
            output=receiver.accept,
            rng=streams.get("gateway"),
        )
        source = CBRSource(
            simulator, gateway.accept_payload, rate=40.0, rng=streams.get("payload")
        )
        gateway.start()
        source.start()
        simulator.run(until=30.0)
        source.stop()
        simulator.run(until=31.0)

        payload_in = gateway.counters.get("payload_received")
        assert destination.total == payload_in
        assert receiver.payload_delivered == payload_in
        assert receiver.dummies_discarded == gateway.counters.get("dummy_sent")
        assert all(p.kind is PacketKind.PAYLOAD for p in destination.packets)

    def test_payload_latency_bounded_by_queueing_at_padding_rate(self, simulator, streams):
        receiver = ReceiverGateway(simulator)
        gateway = SenderGateway(
            simulator,
            ConstantInterval(0.01),
            output=receiver.accept,
            rng=streams.get("gateway"),
        )
        source = CBRSource(
            simulator, gateway.accept_payload, rate=40.0, rng=streams.get("payload")
        )
        gateway.start()
        source.start()
        simulator.run(until=30.0)
        # With 100 pps padding and 40 pps payload the queue never builds up,
        # so worst-case latency is about one timer interval plus jitter.
        assert receiver.mean_payload_latency() < 0.02
        assert receiver.latency.maximum() < 0.05
