"""Helpers for writing recurring processes on top of the callback scheduler.

The simulator core is callback-based.  Most entities (sources, timers, cross
traffic) are naturally expressed as "do something, then reschedule myself
after a delay drawn from some distribution".  :class:`PeriodicProcess`
captures that pattern once so that entity code stays focused on *what*
happens per activation rather than on the rescheduling bookkeeping.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """A self-rescheduling activity.

    Parameters
    ----------
    simulator:
        The event engine to schedule on.
    interval_fn:
        Zero-argument callable returning the delay (seconds) until the *next*
        activation.  Called once per activation, so stochastic intervals
        (VIT timers, Poisson sources) simply return a fresh draw each time.
    action:
        Callable invoked at every activation with the current simulation time.
    name:
        Optional label used in error messages.

    Notes
    -----
    ``interval_fn`` must return a strictly positive, finite delay.  A
    non-positive delay would allow an unbounded number of activations at a
    single simulated instant; the process raises :class:`SimulationError`
    instead of silently looping.
    """

    def __init__(
        self,
        simulator: Simulator,
        interval_fn: Callable[[], float],
        action: Callable[[float], None],
        name: str = "periodic-process",
    ) -> None:
        self._simulator = simulator
        self._interval_fn = interval_fn
        self._action = action
        self.name = name
        self._pending: Optional[Event] = None
        self._active = False
        self.activations = 0

    @property
    def active(self) -> bool:
        """Whether the process is currently scheduled."""
        return self._active

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin activations.

        Parameters
        ----------
        initial_delay:
            Delay before the first activation.  Defaults to a fresh draw from
            ``interval_fn`` so that, e.g., a Poisson source's first packet is
            exponentially distributed like every later gap.
        """
        if self._active:
            raise SimulationError(f"process {self.name!r} is already running")
        delay = self._draw() if initial_delay is None else float(initial_delay)
        if delay < 0.0:
            raise SimulationError(f"initial delay must be >= 0, got {delay!r}")
        self._active = True
        self._pending = self._simulator.schedule(delay, self._activate)

    def stop(self) -> None:
        """Cancel the next activation and halt the process (idempotent)."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._active = False

    def _draw(self) -> float:
        delay = float(self._interval_fn())
        if not delay > 0.0:
            raise SimulationError(
                f"process {self.name!r}: interval_fn returned a non-positive "
                f"delay ({delay!r}); intervals must be strictly positive"
            )
        return delay

    def _activate(self) -> None:
        if not self._active:
            return
        self.activations += 1
        self._action(self._simulator.now)
        if self._active:
            self._pending = self._simulator.schedule(self._draw(), self._activate)


__all__ = ["PeriodicProcess"]
