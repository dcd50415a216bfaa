"""Payload and cross-traffic sources for the event-engine reference.

Every source pushes :class:`~repro.traffic.packet.Packet` objects into a
*sink* — any callable accepting a packet, typically
:meth:`repro.padding.gateway.SenderGateway.accept_payload` or a router input
port.  Sources are built on :class:`repro.sim.process.PeriodicProcess`, so
they start/stop cleanly and draw their inter-packet gaps from their own named
random stream.

The reference testbed drives the sender gateway with Poisson payload and
loads every router with constant-rate Poisson cross traffic
(:class:`PoissonSource`).  :class:`CBRSource` emits exactly one packet every
``1 / rate`` seconds; the gateway and receiver tests use it where a
deterministic payload is easier to reason about.  A source at rate 0 emits
nothing: it keeps polling at ``idle_poll_interval``.

RNG-stream contract (relied on by the vectorized simulation kernel)
-------------------------------------------------------------------
:class:`PoissonSource` draws exactly one exponential gap per scheduled
emission, in emission order, from the ``rng`` it was constructed with, and
nothing else touches that stream.  The vectorized capture kernel
(:mod:`repro.sim.kernel`) regenerates the arrival process — the payload and
every hop's cross traffic — as one cumulative sum of batched exponential
draws and relies on that one-draw-per-gap discipline for byte-identical
arrival times; for the same reason the source itself serves its gaps from a
:class:`repro.sim.random.ChunkedDraws` buffer — same bit stream, a fraction
of the numpy call overhead.  Gaps are floored at ``1e-12`` (an exponential
draw can round to 0.0) and that floor is part of the contract — the kernel
applies the identical ``np.maximum``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.exceptions import TrafficError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import ChunkedDraws, derived_rng
from repro.traffic.packet import Packet, PacketKind
from repro.units import PAPER_PACKET_SIZE_BYTES

PacketSink = Callable[[Packet], None]


class TrafficSource:
    """Common machinery for packet sources.

    Parameters
    ----------
    simulator:
        Event engine the source schedules itself on.
    sink:
        Callable receiving each emitted packet.
    rate:
        Emission rate in packets/second (finite, ``>= 0``).
    rng:
        Random generator for stochastic gap distributions.  Deterministic
        sources ignore it but still accept it for interface uniformity.
    flow_id:
        Label recorded on every emitted packet.
    kind:
        Packet kind to stamp (payload by default; cross-traffic generators
        pass :attr:`PacketKind.CROSS`).
    packet_size_bytes:
        Size stamped on every packet.
    idle_poll_interval:
        Activation period of a source at rate 0, which emits nothing.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        rate: float,
        rng: Optional[np.random.Generator] = None,
        flow_id: str = "payload",
        kind: PacketKind = PacketKind.PAYLOAD,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
        idle_poll_interval: float = 0.1,
    ) -> None:
        if not callable(sink):
            raise TrafficError("sink must be callable")
        if not 0.0 <= rate < math.inf:
            raise TrafficError(f"rate must be >= 0 and finite, got {rate!r}")
        if not 0.0 < idle_poll_interval < math.inf:
            raise TrafficError(
                f"idle_poll_interval must be positive and finite, got {idle_poll_interval!r}"
            )
        self.simulator = simulator
        self.sink = sink
        self.rate = float(rate)
        self.rng = rng if rng is not None else derived_rng(f"source-{flow_id}")
        self.flow_id = flow_id
        self.kind = kind
        self.packet_size_bytes = int(packet_size_bytes)
        self.idle_poll_interval = float(idle_poll_interval)
        self.packets_emitted = 0
        self._process = PeriodicProcess(
            simulator,
            interval_fn=self._next_interval,
            action=self._emit,
            name=f"{type(self).__name__}({flow_id})",
        )

    # -- interface -----------------------------------------------------------
    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin emitting packets."""
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        """Stop emitting packets (idempotent)."""
        self._process.stop()

    @property
    def active(self) -> bool:
        """Whether the source is currently emitting."""
        return self._process.active

    # -- hooks ----------------------------------------------------------------
    def _gap(self) -> float:
        """Delay until the next packet at a positive rate.  Subclasses implement the law."""
        raise NotImplementedError

    def _next_interval(self) -> float:
        if self.rate == 0.0:
            return self.idle_poll_interval
        return self._gap()

    def _emit(self, now: float) -> None:
        if self.rate == 0.0:
            return
        packet = Packet(
            created_at=now,
            kind=self.kind,
            size_bytes=self.packet_size_bytes,
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.sink(packet)


class CBRSource(TrafficSource):
    """Constant bit rate source: deterministic gaps of ``1 / rate`` seconds."""

    def _gap(self) -> float:
        return 1.0 / self.rate


class PoissonSource(TrafficSource):
    """Poisson process: exponential gaps with mean ``1 / rate``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The gap distribution never changes, so the draws are served from a
        # chunked buffer — bit-identical to the scalar calls (see the module
        # docstring) but ~50x cheaper each.
        self._gaps: Optional[ChunkedDraws] = None
        if self.rate > 0.0:
            self._gaps = ChunkedDraws(self.rng, "exponential", (1.0 / self.rate,))

    def _gap(self) -> float:
        assert self._gaps is not None
        # The exponential can return 0.0 at double precision; nudge it so the
        # periodic-process invariant (strictly positive gaps) holds.
        return max(self._gaps.next(), 1e-12)


__all__ = [
    "PacketSink",
    "TrafficSource",
    "CBRSource",
    "PoissonSource",
]
