"""Discrete-event simulation kernel.

This subpackage provides the minimal but complete event-driven simulation
machinery on which the traffic sources, padding gateways and network elements
are built:

* :class:`repro.sim.engine.Simulator` — the event loop (a time-ordered heap of
  scheduled callbacks) with deterministic tie-breaking.
* :class:`repro.sim.events.Event` — a schedulable, cancellable callback.
* :class:`repro.sim.random.RandomStreams` — named, independent random number
  streams derived from a single master seed, so that experiments are
  reproducible and substreams (payload, cross traffic, gateway jitter, ...)
  are statistically independent.
* :mod:`repro.sim.monitor` — probes that record counters and time series
  during a run.
* :mod:`repro.sim.process` — small helpers for writing generator-style
  processes on top of the callback scheduler.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.monitor import CounterMonitor, TimeSeriesMonitor
from repro.sim.process import PeriodicProcess, delayed_call
from repro.sim.random import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "RandomStreams",
    "CounterMonitor",
    "TimeSeriesMonitor",
    "PeriodicProcess",
    "delayed_call",
]
