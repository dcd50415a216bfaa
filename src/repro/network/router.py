"""A FIFO output-queued store-and-forward router.

This is the substrate behind ``delta_net``: the padded stream shares the
router's output link with cross traffic, so a padded packet arriving while
the output port is busy waits in the FIFO queue.  The waiting time depends on
how much cross traffic happens to be in front of it, which perturbs the
padded stream's inter-arrival times exactly as congestion at the Marconi
router (Figure 6) or the campus/Internet routers (Figure 8) did in the
paper's testbed.

Invariants relied on by the vectorized kernel
---------------------------------------------
:func:`repro.sim.kernel.tandem_fifo_exit_times` replays a chain of these
routers in closed form and is byte-identical only while:

* the queue is served strictly FIFO, one packet at a time;
* a packet's departure is ``simulator.now + service_time`` scheduled when its
  service starts — the clock reads the arrival time when the port was idle
  and the previous departure time otherwise, so departures are the chained
  additions ``D_n = max(A_n, D_{n-1}) + S``;
* ``processing_delay`` is 0 and the buffer is unbounded on the paths the
  experiments build (no extra delay, no drops).

Changing any of these changes cached capture fingerprints' meaning; treat
them as frozen contracts, like the engine's event ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.exceptions import NetworkError
from repro.sim.engine import Simulator
from repro.sim.monitor import CounterMonitor, TimeSeriesMonitor
from repro.traffic.packet import Packet, PacketKind
from repro.units import serialization_delay

PacketSink = Callable[[Packet], None]


class Router:
    """Single-output-port router with a FIFO queue.

    Parameters
    ----------
    simulator:
        Event engine.
    output:
        Downstream sink (a :class:`~repro.network.link.Link`, a
        :class:`~repro.network.link.Demux`, the adversary's tap, ...).
    output_rate_bps:
        Capacity of the output link; the service time of a packet is its
        serialisation delay at this rate.
    max_queue_packets:
        Buffer size; packets arriving to a full buffer are dropped (tail
        drop) and counted.  ``None`` means unbounded.
    processing_delay:
        Fixed per-packet forwarding latency added before a packet joins the
        output queue (lookup/switching time).
    name:
        Label used in reports.

    ``queue_monitor`` is kept as an empty time series: queue depth is not
    recorded per packet (nothing reads it, and it cost one sample per
    arrival and departure).
    """

    def __init__(
        self,
        simulator: Simulator,
        output: PacketSink,
        output_rate_bps: float = 100e6,
        max_queue_packets: Optional[int] = None,
        processing_delay: float = 0.0,
        name: str = "router",
    ) -> None:
        if not callable(output):
            raise NetworkError(f"{name}: output must be callable")
        if output_rate_bps <= 0.0:
            raise NetworkError(f"{name}: output_rate_bps must be positive")
        if max_queue_packets is not None and max_queue_packets <= 0:
            raise NetworkError(f"{name}: max_queue_packets must be positive or None")
        if processing_delay < 0.0:
            raise NetworkError(f"{name}: processing_delay must be >= 0")
        self.simulator = simulator
        self.output = output
        self.output_rate_bps = float(output_rate_bps)
        self.max_queue_packets = max_queue_packets
        self.processing_delay = float(processing_delay)
        self.name = name

        self._queue: Deque[Packet] = deque()
        self._busy = False
        self.counters = CounterMonitor()
        self.queue_monitor = TimeSeriesMonitor(f"{name}-queue-depth")
        self._busy_time = 0.0
        self._service_started_at: Optional[float] = None

    # ------------------------------------------------------------- data path
    def receive(self, packet: Packet) -> None:
        """Entry point: a packet arrives on any of the router's input ports."""
        self.counters.increment("received")
        if packet.kind is PacketKind.CROSS:
            self.counters.increment("received_cross")
        else:
            self.counters.increment("received_padded")
        if self.processing_delay > 0.0:
            self.simulator.schedule(self.processing_delay, self._enqueue, packet)
        else:
            self._enqueue(packet)

    __call__ = receive

    def _enqueue(self, packet: Packet) -> None:
        if self.max_queue_packets is not None and len(self._queue) >= self.max_queue_packets:
            self.counters.increment("dropped")
            return
        self._queue.append(packet)
        if not self._busy:
            self._start_service()

    def _start_service(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue[0]
        service_time = float(serialization_delay(packet.size_bytes, self.output_rate_bps))
        self._service_started_at = self.simulator.now
        self.simulator.schedule(service_time, self._finish_service)

    def _finish_service(self) -> None:
        if self._service_started_at is not None:
            self._busy_time += self.simulator.now - self._service_started_at
            self._service_started_at = None
        packet = self._queue.popleft()
        self.counters.increment("forwarded")
        self.output(packet)
        self._start_service()

    # ------------------------------------------------------------ statistics
    @property
    def queue_depth(self) -> int:
        """Number of packets currently waiting or in service."""
        return len(self._queue)

    @property
    def packets_forwarded(self) -> int:
        """Packets transmitted on the output link so far."""
        return self.counters.get("forwarded")

    @property
    def packets_dropped(self) -> int:
        """Packets lost to buffer overflow so far."""
        return self.counters.get("dropped")

    def measured_utilization(self, over_time: Optional[float] = None) -> float:
        """Fraction of time the output port has been busy.

        Parameters
        ----------
        over_time:
            Observation window; defaults to the current simulation time.
        """
        horizon = self.simulator.now if over_time is None else float(over_time)
        if horizon <= 0.0:
            raise NetworkError("cannot compute utilization over a zero-length window")
        busy = self._busy_time
        if self._service_started_at is not None:
            busy += self.simulator.now - self._service_started_at
        return min(busy / horizon, 1.0)

    def service_time_for(self, packet_size_bytes: int) -> float:
        """Serialisation delay of a packet of the given size on the output port."""
        return float(serialization_delay(packet_size_bytes, self.output_rate_bps))


__all__ = ["Router"]
