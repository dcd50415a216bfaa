"""Traffic substrate of the event-engine reference: packets and sources.

Only the event-engine reference
(:func:`repro.experiments.base.simulate_gateway_capture_events`) loads this
subpackage; the capture kernel (:mod:`repro.sim.kernel`) draws the same
arrival processes without packet objects.

* :mod:`repro.traffic.packet` — :class:`~repro.traffic.packet.Packet`, the
  unit moved through gateways, links and routers.
* :mod:`repro.traffic.sources` — the Poisson payload and cross-traffic
  source, and a constant-bit-rate source, that push packets into a sink
  such as a padding gateway or a router port.
"""
