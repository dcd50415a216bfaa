"""Sender-side security gateway (GW1): queue + padding timer + dummy injection.

The gateway implements the padding mechanism of Section 3.2 of the paper:

(a) payload packets arriving from the protected subnet are placed in a queue;
(b) an interrupt-driven timer fires at (approximately) every interval drawn
    from the configured :class:`~repro.padding.timer.IntervalGenerator`;
    the interrupt service routine sends the head-of-queue payload packet if
    one is waiting and a freshly created dummy packet otherwise.

The *approximately* matters: each interrupt is delayed by the
:class:`~repro.padding.disturbance.InterruptDisturbance`, whose magnitude
depends on how many payload packets recently hit the gateway's NIC.  That is
the payload-rate-correlated jitter the adversary exploits.
"""

from __future__ import annotations

from typing import Callable, Deque, List, Optional
from collections import deque

import numpy as np

from repro.exceptions import PaddingError
from repro.sim.engine import Simulator
from repro.sim.monitor import CounterMonitor
from repro.sim.random import derived_rng
from repro.traffic.packet import Packet, PacketKind
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.timer import IntervalGenerator

PacketSink = Callable[[Packet], None]

#: Minimum spacing enforced between consecutive transmissions.  Interrupt
#: delays are microseconds while timer intervals are milliseconds, so this
#: only matters for pathological VIT settings where an interval draw is tiny.
_MIN_TX_SPACING_S = 1e-9


class SenderGateway:
    """The paper's GW1.

    Parameters
    ----------
    simulator:
        Event engine.
    interval_generator:
        CIT or VIT timer law (:mod:`repro.padding.timer`).
    output:
        Sink receiving every transmitted (padded) packet — typically the first
        unprotected link/router or, in the zero-cross-traffic experiments, the
        adversary's tap directly.
    rng:
        Random stream for the timer and (by default) the disturbance model.
    disturbance:
        Gateway jitter model; pass ``None`` for an ideal (disturbance-free)
        gateway, which is useful in unit tests and as an ablation.
    jitter_rng, blocking_rng:
        Optional dedicated streams for the disturbance's scheduling-jitter and
        interrupt-blocking draws.  When provided, each stream carries one
        homogeneous draw sequence, making the event path byte-equivalent to
        the vectorized kernel (:mod:`repro.sim.kernel`).  ``None`` keeps the
        historical behaviour of drawing everything from ``rng``.
    max_queue_packets:
        Capacity of the payload queue; arrivals beyond it are dropped and
        counted.  ``None`` means unbounded.
    dummy_size_bytes:
        Size stamped on generated dummy packets.  Defaults to the size of the
        first payload packet seen (or 512 bytes before any payload arrives) so
        that all packets on the wire share one size, per the paper's
        constant-packet-size assumption.
    """

    def __init__(
        self,
        simulator: Simulator,
        interval_generator: IntervalGenerator,
        output: PacketSink,
        rng: Optional[np.random.Generator] = None,
        disturbance: Optional[InterruptDisturbance] = InterruptDisturbance(),
        max_queue_packets: Optional[int] = None,
        dummy_size_bytes: Optional[int] = None,
        name: str = "GW1",
        jitter_rng: Optional[np.random.Generator] = None,
        blocking_rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not callable(output):
            raise PaddingError("gateway output must be callable")
        if max_queue_packets is not None and max_queue_packets <= 0:
            raise PaddingError("max_queue_packets must be positive or None")
        self.simulator = simulator
        self.interval_generator = interval_generator
        self.output = output
        self.rng = rng if rng is not None else derived_rng(f"gateway-fallback-{name}")
        self.jitter_rng = jitter_rng
        self.blocking_rng = blocking_rng
        self.disturbance = disturbance
        self.max_queue_packets = max_queue_packets
        self.dummy_size_bytes = dummy_size_bytes
        self.name = name

        self.queue: Deque[Packet] = deque()
        self.counters = CounterMonitor()
        self._running = False
        self._arrivals_since_last_interrupt: List[float] = []
        self._last_tx_time: Optional[float] = None
        self._max_queue_seen = 0

    # ------------------------------------------------------------ payload in
    def accept_payload(self, packet: Packet) -> None:
        """Entry point for payload packets from the protected subnet."""
        self.counters.increment("payload_received")
        self._arrivals_since_last_interrupt.append(self.simulator.now)
        if self.dummy_size_bytes is None:
            self.dummy_size_bytes = packet.size_bytes
        if (
            self.max_queue_packets is not None
            and len(self.queue) >= self.max_queue_packets
        ):
            self.counters.increment("payload_dropped")
            return
        self.queue.append(packet)
        self._max_queue_seen = max(self._max_queue_seen, len(self.queue))

    # --------------------------------------------------------------- control
    def start(self, initial_delay: Optional[float] = None) -> None:
        """Arm the padding timer.  The first interrupt fires after one interval."""
        if self._running:
            raise PaddingError(f"{self.name}: padding timer already running")
        self._running = True
        delay = self._next_interval() if initial_delay is None else float(initial_delay)
        self.simulator.schedule(delay, self._on_timer_interrupt, self.simulator.now + delay)

    def stop(self) -> None:
        """Stop padding after the currently scheduled interrupt (idempotent)."""
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the padding timer is armed."""
        return self._running

    @property
    def queue_depth(self) -> int:
        """Number of payload packets currently waiting."""
        return len(self.queue)

    @property
    def max_queue_depth_seen(self) -> int:
        """High-water mark of the payload queue."""
        return self._max_queue_seen

    # ---------------------------------------------------------------- timer
    def _next_interval(self) -> float:
        return self.interval_generator.sample(self.rng)

    def _on_timer_interrupt(self, due_at: float) -> None:
        if not self._running:
            return
        # Reschedule the next interrupt relative to the *due* time so that the
        # interrupt delays do not accumulate into timer drift (this is how a
        # periodic kernel timer behaves).
        next_due = due_at + self._next_interval()
        self.simulator.schedule_at(max(next_due, self.simulator.now), self._on_timer_interrupt, next_due)

        delay = 0.0
        if self.disturbance is not None:
            delay = self.disturbance.sample_delay(
                self.rng,
                self._arrivals_since_last_interrupt,
                due_at,
                jitter_rng=self.jitter_rng,
                blocking_rng=self.blocking_rng,
            )
        self._arrivals_since_last_interrupt = [
            t for t in self._arrivals_since_last_interrupt if t > due_at
        ]
        send_time = due_at + delay
        if self._last_tx_time is not None:
            send_time = max(send_time, self._last_tx_time + _MIN_TX_SPACING_S)
        self._last_tx_time = send_time
        if send_time <= self.simulator.now:
            self._transmit()
        else:
            self.simulator.schedule_at(send_time, self._transmit)

    # ------------------------------------------------------------------- tx
    def _transmit(self) -> None:
        now = self.simulator.now
        if self.queue:
            packet = self.queue.popleft()
            packet.sent_at = now
            self.counters.increment("payload_sent")
        else:
            packet = Packet(
                created_at=now,
                kind=PacketKind.DUMMY,
                size_bytes=self.dummy_size_bytes or 512,
                flow_id=f"{self.name}-dummy",
            )
            packet.sent_at = now
            self.counters.increment("dummy_sent")
        self.counters.increment("packets_sent")
        self.output(packet)

    # ------------------------------------------------------------ statistics
    @property
    def packets_sent(self) -> int:
        """Total packets (payload + dummy) transmitted so far."""
        return self.counters.get("packets_sent")

    @property
    def dummy_fraction(self) -> float:
        """Fraction of transmitted packets that were dummies."""
        total = self.packets_sent
        if total == 0:
            raise PaddingError("no packets transmitted yet")
        return self.counters.get("dummy_sent") / total


class AdaptiveMaskingGateway(SenderGateway):
    """Adaptive traffic-masking baseline (Timmerman-style).

    Instead of padding at a fixed rate, the timer interval tracks an
    exponentially weighted estimate of the recent payload rate scaled by
    ``headroom`` (so some dummies are still sent), clamped to
    ``[min_interval, max_interval]``.  This conserves bandwidth but, as the
    paper's related-work discussion points out, it violates perfect secrecy:
    large-scale payload-rate changes become directly observable in the padded
    rate.  ``tests/padding/test_gateway.py`` pits it against the CIT gateway
    on the same payload classes: even the sample mean detects it.
    """

    def __init__(
        self,
        *args,
        headroom: float = 1.5,
        min_interval: float = 1e-3,
        max_interval: float = 0.1,
        rate_smoothing: float = 0.2,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if headroom < 1.0:
            raise PaddingError("headroom must be >= 1 (padding rate >= payload rate)")
        if not 0.0 < rate_smoothing <= 1.0:
            raise PaddingError("rate_smoothing must be in (0, 1]")
        if min_interval <= 0.0 or max_interval <= min_interval:
            raise PaddingError("need 0 < min_interval < max_interval")
        self.headroom = float(headroom)
        self.min_interval = float(min_interval)
        self.max_interval = float(max_interval)
        self.rate_smoothing = float(rate_smoothing)
        self._rate_estimate_pps = 1.0 / self.max_interval
        self._last_arrival_time: Optional[float] = None

    def accept_payload(self, packet: Packet) -> None:
        now = self.simulator.now
        if self._last_arrival_time is not None:
            gap = now - self._last_arrival_time
            if gap > 0.0:
                instantaneous = 1.0 / gap
                self._rate_estimate_pps = (
                    self.rate_smoothing * instantaneous
                    + (1.0 - self.rate_smoothing) * self._rate_estimate_pps
                )
        self._last_arrival_time = now
        super().accept_payload(packet)

    def _next_interval(self) -> float:
        target_rate = max(self._rate_estimate_pps * self.headroom, 1.0 / self.max_interval)
        interval = 1.0 / target_rate
        return float(min(max(interval, self.min_interval), self.max_interval))


__all__ = ["SenderGateway", "AdaptiveMaskingGateway"]
