"""Payload and cross-traffic sources.

Every source pushes :class:`~repro.traffic.packet.Packet` objects into a
*sink* — any callable accepting a packet, typically
:meth:`repro.padding.gateway.SenderGateway.accept_payload` or a router input
port.  Sources are built on :class:`repro.sim.process.PeriodicProcess`, so
they start/stop cleanly and draw their inter-packet gaps from their own named
random stream.

The evaluation uses constant-rate payload (the sender emits at 10 or 40 pps);
Poisson, on/off and Markov-modulated sources are provided both as cross
traffic generators and to exercise the padding system under burstier inputs
than the paper's, which several tests and ablation benchmarks do.

RNG-stream contract (relied on by the vectorized simulation kernel)
-------------------------------------------------------------------
:class:`PoissonSource` draws exactly one exponential gap per scheduled
emission, in emission order, from the ``rng`` it was constructed with, and
nothing else touches that stream.  The vectorized capture kernel
(:mod:`repro.sim.kernel`) regenerates the arrival process — the payload and
every hop's cross traffic — as one cumulative sum of batched exponential
draws and relies on that one-draw-per-gap discipline for byte-identical
arrival times; for the same reason the source
itself serves its gaps from a :class:`repro.sim.random.ChunkedDraws` buffer
when the rate is constant — same bit stream, a fraction of the numpy call
overhead.  Gaps are floored at ``1e-12`` (an exponential draw can round to
0.0) and that floor is part of the contract — the kernel applies the
identical ``np.maximum``.  Sources with mutable modulation state (on/off,
MMPP) interleave phase draws with gap draws on one stream and therefore
cannot be buffered or vectorized; they always run on the event engine.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import TrafficError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import ChunkedDraws, derived_rng
from repro.traffic.packet import Packet, PacketKind
from repro.traffic.schedule import ConstantRateSchedule, RateSchedule
from repro.units import PAPER_PACKET_SIZE_BYTES

PacketSink = Callable[[Packet], None]
RateLike = Union[float, RateSchedule]


def _as_schedule(rate: RateLike) -> RateSchedule:
    if isinstance(rate, RateSchedule):
        return rate
    return ConstantRateSchedule(float(rate))


class TrafficSource:
    """Common machinery for packet sources.

    Parameters
    ----------
    simulator:
        Event engine the source schedules itself on.
    sink:
        Callable receiving each emitted packet.
    rate:
        Either a fixed rate in packets/second or a
        :class:`~repro.traffic.schedule.RateSchedule`.
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
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        rate: RateLike,
        rng: Optional[np.random.Generator] = None,
        flow_id: str = "payload",
        kind: PacketKind = PacketKind.PAYLOAD,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
    ) -> None:
        if not callable(sink):
            raise TrafficError("sink must be callable")
        self.simulator = simulator
        self.sink = sink
        self.schedule = _as_schedule(rate)
        self.rng = rng if rng is not None else derived_rng(f"source-{flow_id}")
        self.flow_id = flow_id
        self.kind = kind
        self.packet_size_bytes = int(packet_size_bytes)
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
    def _current_rate(self) -> float:
        rate = self.schedule.rate_at(self.simulator.now)
        if rate < 0.0:
            raise TrafficError(f"schedule returned a negative rate: {rate!r}")
        return rate

    def _next_interval(self) -> float:
        """Delay until the next packet.  Subclasses implement the law."""
        raise NotImplementedError

    def _emit(self, now: float) -> None:
        packet = Packet(
            created_at=now,
            kind=self.kind,
            size_bytes=self.packet_size_bytes,
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.sink(packet)


class CBRSource(TrafficSource):
    """Constant bit rate source: deterministic gaps of ``1 / rate`` seconds.

    This is the payload model of the paper's evaluation (the sender emits at
    exactly 10 pps or 40 pps).  If the rate schedule momentarily returns 0,
    the source idles by polling the schedule at ``idle_poll_interval``.
    """

    def __init__(self, *args, idle_poll_interval: float = 0.1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if idle_poll_interval <= 0.0:
            raise TrafficError("idle_poll_interval must be positive")
        self.idle_poll_interval = float(idle_poll_interval)

    def _next_interval(self) -> float:
        rate = self._current_rate()
        if rate == 0.0:
            return self.idle_poll_interval
        return 1.0 / rate

    def _emit(self, now: float) -> None:
        # Suppress emission while the schedule says "silent"; the process keeps
        # polling so it wakes up when the schedule turns the flow back on.
        if self._current_rate() == 0.0:
            return
        super()._emit(now)


class PoissonSource(TrafficSource):
    """Poisson process: exponential gaps with the scheduled mean rate."""

    def __init__(self, *args, idle_poll_interval: float = 0.1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if idle_poll_interval <= 0.0:
            raise TrafficError("idle_poll_interval must be positive")
        self.idle_poll_interval = float(idle_poll_interval)
        # With a constant rate the gap distribution never changes, so the
        # draws can be served from a chunked buffer — bit-identical to the
        # scalar calls (see the module docstring) but ~50x cheaper each.
        self._buffered_gaps: Optional[ChunkedDraws] = None
        if isinstance(self.schedule, ConstantRateSchedule):
            rate = self.schedule.rate_at(0.0)
            if rate > 0.0:
                self._buffered_gaps = ChunkedDraws(self.rng, "exponential", (1.0 / rate,))

    def _next_interval(self) -> float:
        rate = self._current_rate()
        if rate == 0.0:
            return self.idle_poll_interval
        if self._buffered_gaps is not None:
            gap = self._buffered_gaps.next()
        else:
            gap = float(self.rng.exponential(1.0 / rate))
        # The exponential can return 0.0 at double precision; nudge it so the
        # periodic-process invariant (strictly positive gaps) holds.
        return max(gap, 1e-12)

    def _emit(self, now: float) -> None:
        if self._current_rate() == 0.0:
            return
        super()._emit(now)


class OnOffSource(TrafficSource):
    """Exponential on/off source.

    During an ON period the source emits Poisson traffic at ``peak`` rate
    (the configured ``rate`` is interpreted as the peak); OFF periods are
    silent.  ON and OFF durations are exponentially distributed with the
    given means.  The long-run average rate is
    ``peak * mean_on / (mean_on + mean_off)``.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        rate: RateLike,
        mean_on_time: float,
        mean_off_time: float,
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        if mean_on_time <= 0 or mean_off_time <= 0:
            raise TrafficError("mean on/off durations must be positive")
        super().__init__(simulator, sink, rate, rng=rng, **kwargs)
        self.mean_on_time = float(mean_on_time)
        self.mean_off_time = float(mean_off_time)
        self._on = True
        self._phase_ends_at = 0.0

    def start(self, initial_delay: Optional[float] = None) -> None:
        self._on = True
        self._phase_ends_at = self.simulator.now + float(self.rng.exponential(self.mean_on_time))
        super().start(initial_delay=initial_delay)

    def _advance_phases(self, now: float) -> None:
        while now >= self._phase_ends_at:
            self._on = not self._on
            mean = self.mean_on_time if self._on else self.mean_off_time
            self._phase_ends_at += float(self.rng.exponential(mean))

    def _next_interval(self) -> float:
        rate = self._current_rate()
        if rate == 0.0:
            return max(self.mean_off_time, 1e-6)
        return max(float(self.rng.exponential(1.0 / rate)), 1e-12)

    def _emit(self, now: float) -> None:
        self._advance_phases(now)
        if not self._on or self._current_rate() == 0.0:
            return
        super()._emit(now)

    @property
    def average_rate_pps(self) -> float:
        """Long-run mean emission rate implied by the on/off parameters."""
        peak = self.schedule.rate_at(0.0)
        duty = self.mean_on_time / (self.mean_on_time + self.mean_off_time)
        return peak * duty


class MMPPSource(TrafficSource):
    """Markov-modulated Poisson process with an arbitrary number of states.

    Parameters
    ----------
    state_rates_pps:
        Emission rate in each modulating state.
    mean_holding_times:
        Mean sojourn time (seconds, exponential) in each state.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        state_rates_pps: Sequence[float],
        mean_holding_times: Sequence[float],
        rng: Optional[np.random.Generator] = None,
        **kwargs,
    ) -> None:
        rates = [float(r) for r in state_rates_pps]
        holds = [float(h) for h in mean_holding_times]
        if len(rates) != len(holds) or len(rates) < 2:
            raise TrafficError("need >= 2 states with matching rates and holding times")
        if any(r < 0 for r in rates) or any(h <= 0 for h in holds):
            raise TrafficError("state rates must be >= 0 and holding times > 0")
        super().__init__(simulator, sink, rates[0], rng=rng, **kwargs)
        self.state_rates = rates
        self.mean_holding_times = holds
        self._state = 0
        self._state_ends_at = 0.0

    def start(self, initial_delay: Optional[float] = None) -> None:
        self._state = 0
        self._state_ends_at = self.simulator.now + float(
            self.rng.exponential(self.mean_holding_times[0])
        )
        super().start(initial_delay=initial_delay)

    def _advance_state(self, now: float) -> None:
        while now >= self._state_ends_at:
            self._state = (self._state + 1) % len(self.state_rates)
            self._state_ends_at += float(
                self.rng.exponential(self.mean_holding_times[self._state])
            )

    def _current_rate(self) -> float:
        self._advance_state(self.simulator.now)
        return self.state_rates[self._state]

    def _next_interval(self) -> float:
        rate = self._current_rate()
        if rate == 0.0:
            return max(min(self.mean_holding_times), 1e-3)
        return max(float(self.rng.exponential(1.0 / rate)), 1e-12)

    def _emit(self, now: float) -> None:
        if self._current_rate() == 0.0:
            return
        super()._emit(now)

    @property
    def state(self) -> int:
        """Index of the current modulating state."""
        return self._state


class TraceReplaySource:
    """Replays a recorded list of packet emission timestamps.

    Stands in for feeding captured traces (e.g. from the paper's hardware
    analyser) back into the padding system.  Timestamps are absolute
    simulation times and must be non-decreasing.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        timestamps: Sequence[float],
        flow_id: str = "trace",
        kind: PacketKind = PacketKind.PAYLOAD,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
    ) -> None:
        stamps = np.asarray(list(timestamps), dtype=float)
        if stamps.size and np.any(np.diff(stamps) < 0.0):
            raise TrafficError("trace timestamps must be non-decreasing")
        if stamps.size and stamps[0] < simulator.now:
            raise TrafficError("trace starts in the simulator's past")
        self.simulator = simulator
        self.sink = sink
        self.timestamps = stamps
        self.flow_id = flow_id
        self.kind = kind
        self.packet_size_bytes = int(packet_size_bytes)
        self.packets_emitted = 0
        self._started = False

    def start(self) -> None:
        """Schedule every packet in the trace (one bulk heap insertion)."""
        if self._started:
            raise TrafficError("trace replay can only be started once")
        self._started = True
        stamps = [float(s) for s in self.timestamps]
        self.simulator.schedule_batch(
            stamps, self._emit, args_list=[(s,) for s in stamps]
        )

    def _emit(self, when: float) -> None:
        packet = Packet(
            created_at=when,
            kind=self.kind,
            size_bytes=self.packet_size_bytes,
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.sink(packet)


__all__ = [
    "PacketSink",
    "TrafficSource",
    "CBRSource",
    "PoissonSource",
    "OnOffSource",
    "MMPPSource",
    "TraceReplaySource",
]
