"""End-to-end unprotected path: a chain of routers with per-hop cross traffic.

``UnprotectedPath`` wires together the elements of :mod:`repro.network` into
the topology of the paper's Figure 1/3/7: the padded stream enters at hop 0,
traverses every router in order (sharing each output link with that hop's
cross traffic), and leaves the last hop into an exit sink (the receiver
gateway, usually with the adversary's tap in front of it).

Observers can be registered at any hop egress, which is how the experiment
harness places the adversary's tap "right at the output of the sender
gateway" (hop 0 ingress side) or "right in front of the receiver gateway"
(last hop egress), matching the vantage points studied in the paper.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import NetworkError
from repro.network.crosstraffic import CrossTrafficGenerator
from repro.network.link import Demux, Link, NullSink, PacketSink
from repro.network.router import Router
from repro.network.topology import HOP_PROPAGATION_DELAY_S
from repro.sim.engine import Simulator
from repro.traffic.packet import Packet
from repro.units import PAPER_PACKET_SIZE_BYTES

Observer = Callable[[Packet], None]


class _HopEgress:
    """Forwards padded packets at a hop egress through observers, then onward."""

    def __init__(self, downstream: PacketSink) -> None:
        self.downstream = downstream
        self.observers: List[Observer] = []

    def __call__(self, packet: Packet) -> None:
        for observer in self.observers:
            observer(packet)
        self.downstream(packet)


class UnprotectedPath:
    """A chain of ``n_hops`` routers between the two security gateways.

    Parameters
    ----------
    simulator:
        Event engine.
    exit_sink:
        Final consumer of the padded stream (typically the receiver gateway).
    n_hops:
        Number of store-and-forward routers on the path (0 is allowed and
        models a tap directly at the sender gateway's output).
    link_rate_bps:
        Output-link capacity of every router (scalar) or one value per hop.
    propagation_delay:
        One-way propagation delay per hop in seconds.
    router_buffer_packets:
        Router buffer size (``None`` = unbounded).
    packet_size_bytes:
        Nominal packet size used for utilization bookkeeping.
    name:
        Label used in reports.
    """

    def __init__(
        self,
        simulator: Simulator,
        exit_sink: PacketSink,
        n_hops: int = 1,
        link_rate_bps: Union[float, Sequence[float]] = 80e6,
        propagation_delay: float = HOP_PROPAGATION_DELAY_S,
        router_buffer_packets: Optional[int] = None,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
        name: str = "path",
    ) -> None:
        if n_hops < 0:
            raise NetworkError("n_hops must be >= 0")
        if not callable(exit_sink):
            raise NetworkError("exit_sink must be callable")
        if np.isscalar(link_rate_bps):
            rates = [float(link_rate_bps)] * n_hops
        else:
            rates = [float(r) for r in link_rate_bps]
            if len(rates) != n_hops:
                raise NetworkError(
                    f"expected {n_hops} link rates, got {len(rates)}"
                )
        self.simulator = simulator
        self.exit_sink = exit_sink
        self.n_hops = int(n_hops)
        self.link_rates_bps = rates
        self.packet_size_bytes = int(packet_size_bytes)
        self.name = name

        self.routers: List[Router] = []
        self.demuxes: List[Demux] = []
        self.cross_sinks: List[NullSink] = []
        self._egresses: List[_HopEgress] = []
        self._cross_generators: Dict[int, List[CrossTrafficGenerator]] = {}

        # Build the chain from the exit backwards so each hop knows its
        # downstream neighbour at construction time.
        downstream: PacketSink = exit_sink
        for hop in reversed(range(n_hops)):
            egress = _HopEgress(downstream)
            cross_sink = NullSink(f"{name}-hop{hop}-cross-dst")
            demux = Demux(padded_sink=egress, cross_sink=cross_sink)
            link = Link(
                simulator,
                sink=demux,
                propagation_delay=propagation_delay,
                name=f"{name}-hop{hop}-link",
            )
            router = Router(
                simulator,
                output=link,
                output_rate_bps=rates[hop],
                max_queue_packets=router_buffer_packets,
                name=f"{name}-router{hop}",
            )
            self.routers.insert(0, router)
            self.demuxes.insert(0, demux)
            self.cross_sinks.insert(0, cross_sink)
            self._egresses.insert(0, egress)
            downstream = router.receive
        self._entry: PacketSink = downstream

    # --------------------------------------------------------------- wiring
    @property
    def entry(self) -> PacketSink:
        """Sink the sender gateway's output should be connected to."""
        return self._entry

    def add_observer(self, hop_index: int, observer: Observer) -> None:
        """Observe the padded stream at the egress of ``hop_index``.

        Hop indices run 0..n_hops-1; the egress of the last hop is the point
        "right in front of the receiver gateway" used in the campus/WAN
        experiments.  For a tap at the sender gateway's output, observe the
        gateway directly instead of using this method.
        """
        if self.n_hops == 0:
            raise NetworkError("a zero-hop path has no router egress to observe")
        if not 0 <= hop_index < self.n_hops:
            raise NetworkError(
                f"hop_index must be in [0, {self.n_hops - 1}], got {hop_index}"
            )
        if not callable(observer):
            raise NetworkError("observer must be callable")
        self._egresses[hop_index].observers.append(observer)

    # --------------------------------------------------------- cross traffic
    def attach_cross_traffic(
        self,
        hop_index: int,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        flow_id: Optional[str] = None,
    ) -> CrossTrafficGenerator:
        """Attach (and return, not yet started) a Poisson cross-traffic source at a hop."""
        if not 0 <= hop_index < self.n_hops:
            raise NetworkError(
                f"hop_index must be in [0, {self.n_hops - 1}], got {hop_index}"
            )
        generator = CrossTrafficGenerator(
            self.simulator,
            self.routers[hop_index].receive,
            rate=rate,
            rng=rng,
            packet_size_bytes=self.packet_size_bytes,
            flow_id=flow_id or f"{self.name}-cross-hop{hop_index}",
        )
        self._cross_generators.setdefault(hop_index, []).append(generator)
        return generator

    def start_cross_traffic(self) -> None:
        """Start every attached cross-traffic generator."""
        for generators in self._cross_generators.values():
            for generator in generators:
                generator.start()

    def stop_cross_traffic(self) -> None:
        """Stop every attached cross-traffic generator."""
        for generators in self._cross_generators.values():
            for generator in generators:
                generator.stop()

    # ------------------------------------------------------------ statistics
    def padded_packets_delivered(self) -> int:
        """Padded-stream packets that reached the exit sink side of the last hop."""
        if self.n_hops == 0:
            raise NetworkError("a zero-hop path does not track deliveries")
        return self.demuxes[-1].padded_packets

    def total_drops(self) -> int:
        """Packets dropped at any router on the path."""
        return sum(router.packets_dropped for router in self.routers)


__all__ = ["UnprotectedPath"]
