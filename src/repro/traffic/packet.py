"""Packet model.

The paper assumes all packets on the padded link have a constant size and are
perfectly encrypted, so an observer can use *only* timing.  The
:class:`Packet` object nevertheless carries a ``kind`` and a ``flow_id`` so
that the simulation itself (and the tests) can distinguish payload from dummy
and from cross traffic — the adversary code never looks at these fields, which
is asserted by tests in ``tests/adversary``.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.units import PAPER_PACKET_SIZE_BYTES

_packet_ids = itertools.count()


class PacketKind(enum.Enum):
    """What a packet carries.

    Only the simulation and the evaluation harness may inspect this; the
    adversary model treats every packet on the unprotected link identically
    (packets are assumed perfectly encrypted and of constant size).
    """

    PAYLOAD = "payload"
    DUMMY = "dummy"
    CROSS = "cross"


@dataclass
class Packet:
    """A single packet moving through the simulated system.

    Attributes
    ----------
    created_at:
        Simulation time at which the packet came into existence (payload
        generation time, dummy injection time, or cross-traffic emission
        time).
    kind:
        Payload, dummy (padding) or cross traffic.
    size_bytes:
        Packet size; constant by default per the paper's assumption.
    flow_id:
        Identifier of the generating source (useful when several cross
        traffic sources share a router).
    packet_id:
        Globally unique sequence number, assigned automatically.
    sent_at:
        Time the packet left the sender gateway (set by the gateway).
    received_at:
        Time the packet arrived at its final observation point (set by links
        or the receiver gateway).
    """

    created_at: float
    kind: PacketKind = PacketKind.PAYLOAD
    size_bytes: int = PAPER_PACKET_SIZE_BYTES
    flow_id: str = "payload"
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    sent_at: Optional[float] = None
    received_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes!r}")
        if self.created_at < 0.0:
            raise ValueError(f"creation time must be >= 0, got {self.created_at!r}")

    @property
    def is_dummy(self) -> bool:
        """True when this packet is padding rather than payload/cross traffic."""
        return self.kind is PacketKind.DUMMY

    @property
    def is_payload(self) -> bool:
        """True when this packet carries user data."""
        return self.kind is PacketKind.PAYLOAD

    @property
    def latency(self) -> float:
        """End-to-end latency (receive time minus creation time).

        Raises
        ------
        ValueError
            If the packet has not been received yet.
        """
        if self.received_at is None:
            raise ValueError("packet has not been received yet")
        return self.received_at - self.created_at


__all__ = ["Packet", "PacketKind"]
