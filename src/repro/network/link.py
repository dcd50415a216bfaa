"""Links and elementary packet sinks."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.exceptions import NetworkError
from repro.sim.engine import Simulator
from repro.traffic.packet import Packet, PacketKind

PacketSink = Callable[[Packet], None]


class Link:
    """A point-to-point link with propagation delay only.

    Serialisation (transmission) delay is modelled inside the upstream
    :class:`~repro.network.router.Router`, which owns the output queue.

    Parameters
    ----------
    simulator:
        Event engine.
    sink:
        Downstream packet consumer.
    propagation_delay:
        One-way latency in seconds.
    name:
        Label used in reports and errors.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        propagation_delay: float = 0.0,
        name: str = "link",
    ) -> None:
        if not callable(sink):
            raise NetworkError(f"{name}: sink must be callable")
        if propagation_delay < 0.0:
            raise NetworkError(f"{name}: propagation delay must be >= 0")
        self.simulator = simulator
        self.sink = sink
        self.propagation_delay = float(propagation_delay)
        self.name = name
        self.packets_carried = 0

    def send(self, packet: Packet) -> None:
        """Accept a packet for transmission toward the sink."""
        self.packets_carried += 1
        now = self.simulator.now
        arrival = now + self.propagation_delay
        if arrival <= now:
            self.sink(packet)
        else:
            self.simulator.schedule_at(arrival, self.sink, packet)

    __call__ = send


class NullSink:
    """Discards every packet (counts them); the destination of cross traffic."""

    def __init__(self, name: str = "null") -> None:
        self.name = name
        self.packets_discarded = 0

    def __call__(self, packet: Packet) -> None:
        self.packets_discarded += 1


class CountingSink:
    """Stores received packets and per-kind counts; handy in tests."""

    def __init__(self, keep_packets: bool = True, name: str = "sink") -> None:
        self.name = name
        self.keep_packets = keep_packets
        self.packets: List[Packet] = []
        self.counts: Dict[PacketKind, int] = {kind: 0 for kind in PacketKind}

    def __call__(self, packet: Packet) -> None:
        self.counts[packet.kind] += 1
        if self.keep_packets:
            self.packets.append(packet)

    @property
    def total(self) -> int:
        """Total number of packets received."""
        return sum(self.counts.values())

    def arrival_times(self) -> List[float]:
        """Reception-order creation timestamps of the stored packets."""
        return [p.created_at for p in self.packets]


class Demux:
    """Splits a packet stream by kind: padded stream vs. cross traffic.

    At each router's egress the padded stream continues toward GW2 while
    cross traffic peels off toward its own destination.  The demultiplexer
    performs that split using only simulation-level ground truth (the packet
    ``kind``); the adversary never sees or needs this object.
    """

    def __init__(self, padded_sink: PacketSink, cross_sink: Optional[PacketSink] = None) -> None:
        if not callable(padded_sink):
            raise NetworkError("padded_sink must be callable")
        if cross_sink is not None and not callable(cross_sink):
            raise NetworkError("cross_sink must be callable or None")
        self.padded_sink = padded_sink
        self.cross_sink = cross_sink if cross_sink is not None else NullSink("cross-destination")
        self.padded_packets = 0
        self.cross_packets = 0

    def __call__(self, packet: Packet) -> None:
        if packet.kind is PacketKind.CROSS:
            self.cross_packets += 1
            self.cross_sink(packet)
        else:
            self.padded_packets += 1
            self.padded_sink(packet)


__all__ = ["Link", "NullSink", "CountingSink", "Demux", "PacketSink"]
