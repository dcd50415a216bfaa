"""Cross-traffic generation for the event-engine reference.

In the laboratory experiment (Figure 6) a workstation in subnet C sends
traffic through the shared router toward subnet D; the x-axis of the figure
is the resulting utilization of the shared output link.  The reference
replays that load as constant-rate Poisson traffic (aggregated traffic from
many independent sources) at every router; the rate that reaches a target
utilization is :func:`repro.network.topology.cross_traffic_rate_for_utilization`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.traffic.packet import PacketKind
from repro.traffic.sources import PacketSink, PoissonSource
from repro.units import PAPER_PACKET_SIZE_BYTES


class CrossTrafficGenerator:
    """A Poisson cross-traffic source attached to a router's input.

    Parameters
    ----------
    simulator:
        Event engine.
    sink:
        Where cross packets are injected — normally ``router.receive``.
    rate:
        Packet rate in packets/second.
    rng:
        Random stream for the arrival process.
    packet_size_bytes:
        Size of cross packets (defaults to the padded packet size so that
        utilization arithmetic matches the paper's setup).
    flow_id:
        Label stamped on generated packets.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
        flow_id: str = "cross",
    ) -> None:
        self.source = PoissonSource(
            simulator,
            sink,
            rate=rate,
            rng=rng,
            flow_id=flow_id,
            kind=PacketKind.CROSS,
            packet_size_bytes=packet_size_bytes,
        )

    def start(self) -> None:
        """Begin injecting cross traffic."""
        self.source.start()

    def stop(self) -> None:
        """Stop injecting cross traffic."""
        self.source.stop()

    @property
    def packets_emitted(self) -> int:
        """Number of cross packets injected so far."""
        return self.source.packets_emitted


__all__ = ["CrossTrafficGenerator"]
