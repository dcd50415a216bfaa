"""Simulation machinery: the capture kernel and its event-engine reference.

The runtime loads only the first two modules:

* :mod:`repro.sim.kernel` — the vectorized capture kernel, which computes a
  padded capture (gateway, and optionally a chain of FIFO routers with
  Poisson cross traffic) in closed form.
* :class:`repro.sim.random.RandomStreams` — named, independent random number
  streams derived from a single master seed, so that experiments are
  reproducible and substreams (payload, cross traffic, gateway jitter, ...)
  are statistically independent.

The event-driven reference the kernel is proven byte-identical to is loaded
only by :func:`repro.experiments.base.simulate_gateway_capture_events`:

* :class:`repro.sim.engine.Simulator` — the event loop (a time-ordered heap of
  scheduled callbacks) with deterministic tie-breaking.
* :class:`repro.sim.events.Event` — a schedulable, cancellable callback.
* :mod:`repro.sim.monitor` — probes that record counters and time series
  during a run.
* :class:`repro.sim.process.PeriodicProcess` — a self-rescheduling activity
  on top of the callback scheduler.
"""

from repro.sim.random import RandomStreams

__all__ = ["RandomStreams"]
