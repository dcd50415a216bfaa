"""The discrete-event simulation engine.

The engine is a classic calendar/heap scheduler: entities schedule callbacks
at absolute or relative simulated times, and :meth:`Simulator.run` pops events
in time order and fires them until the horizon is reached or the event heap
drains.  It is intentionally small — the padding gateways, traffic sources and
routers built on top of it only need ``schedule``/``cancel``/``now`` — but it
enforces the invariants that make long runs trustworthy:

* time never moves backwards,
* events scheduled for identical times fire in scheduling order,
* a run can be resumed (``run`` may be called repeatedly with increasing
  horizons),
* the number of processed events is bounded by an explicit safety limit so a
  runaway feedback loop fails loudly instead of spinning forever.

Event-ordering contract (relied on by the vectorized fast path)
---------------------------------------------------------------
Events are totally ordered by ``(time, priority, sequence)`` where
``sequence`` is a global creation counter, so simultaneous events always fire
in the order they were scheduled.  :mod:`repro.sim.kernel` computes
capture timestamps in closed form instead of replaying the event loop; its
byte-for-byte equivalence proof assumes exactly this deterministic ordering
plus the fact that ``run(until=h)`` fires every event with ``time <= h`` and
leaves later events on the heap.  Frozen contracts — changing any of them
silently breaks that equivalence and therefore cached capture fingerprints:

* the tie-breaking rule;
* the horizon comparison (``<=`` vs ``<``);
* the one-draw-per-activation discipline of
  :class:`repro.sim.process.PeriodicProcess`;
* the router's ``now + service_time`` chain: :meth:`schedule` computes an
  event time as ``now + delay`` in one floating-point addition, so a
  router's back-to-back departures are chained additions of the service
  time (see :mod:`repro.network.router`).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.events import Event


class Simulator:
    """Event-driven simulation kernel.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds (default 0).
    max_events:
        Hard cap on the number of events processed over the simulator's
        lifetime.  Exceeding it raises :class:`SimulationError`.  The default
        (200 million) is far beyond any experiment in this repository but
        protects against accidental self-rescheduling loops.
    """

    def __init__(self, start_time: float = 0.0, max_events: int = 200_000_000) -> None:
        if max_events <= 0:
            raise ValueError("max_events must be positive")
        self._now = float(start_time)
        self._heap: List[Event] = []
        self._processed = 0
        self._max_events = int(max_events)
        self._running = False

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still on the heap (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event`, which the caller may later cancel.

        Raises
        ------
        SchedulingError
            If ``delay`` is negative or not finite.
        """
        return self.schedule_at(self._now + float(delay), callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``."""
        time = float(time)
        if not time == time or time in (float("inf"), float("-inf")):  # NaN / inf guard
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event in the past: t={time:.9f} < now={self._now:.9f}"
            )
        if not callable(callback):
            raise TypeError(f"callback must be callable, got {callback!r}")
        event = Event(time=time, priority=priority, callback=callback, args=args)
        heapq.heappush(self._heap, event)
        return event

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> float:
        """Process events in time order.

        Parameters
        ----------
        until:
            Simulation horizon in seconds.  Events scheduled strictly after
            ``until`` are left on the heap and the clock is advanced to
            ``until``.  When omitted the simulator runs until the heap is
            empty.

        Returns
        -------
        float
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        if until is not None:
            until = float(until)
            if until < self._now:
                raise SchedulingError(
                    f"horizon {until!r} lies before current time {self._now!r}"
                )
        self._running = True
        try:
            while self._heap:
                event = self._heap[0]
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                if event.time < self._now:
                    raise SimulationError(
                        "event heap yielded an event in the past "
                        f"({event.time!r} < {self._now!r}); this is a bug"
                    )
                self._now = event.time
                self._processed += 1
                if self._processed > self._max_events:
                    raise SimulationError(
                        f"exceeded max_events={self._max_events}; "
                        "possible runaway self-rescheduling loop"
                    )
                event.fire()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        Enforces the same invariants as :meth:`run`: it is not re-entrant
        (calling it from inside a callback could fire a later event before an
        earlier one finishes) and it counts against ``max_events``.
        """
        if self._running:
            raise SimulationError("Simulator.step is not re-entrant")
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            if self._processed > self._max_events:
                raise SimulationError(
                    f"exceeded max_events={self._max_events}; "
                    "possible runaway self-rescheduling loop"
                )
            self._running = True
            try:
                event.fire()
            finally:
                self._running = False
            return True
        return False

    def drain_cancelled(self) -> int:
        """Remove cancelled events from the heap; returns the number removed.

        Long runs that cancel many timers can call this occasionally to keep
        the heap small.  It never changes observable behaviour.
        """
        before = len(self._heap)
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        return before - len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Simulator(now={self._now:.6f}, pending={len(self._heap)}, "
            f"processed={self._processed})"
        )


__all__ = ["Simulator"]
