"""Link-padding countermeasure: timers, gateways and padding policies.

This subpackage implements the countermeasure the paper analyses.  The
sender-side security gateway (GW1 in the paper's Figure 1) queues payload
packets arriving from the protected subnet and transmits exactly one packet —
payload if available, otherwise a dummy — every time its padding timer fires:

* :mod:`repro.padding.timer` — interval generators: the constant interval
  timer (**CIT**) and several variable interval timer (**VIT**) families
  (normal, uniform, exponential, log-normal) parameterised by mean interval
  ``tau`` and standard deviation ``sigma_T``.
* :mod:`repro.padding.disturbance` — the gateway disturbance ``delta_gw``:
  operating-system jitter on the timer interrupt plus the payload-dependent
  blocking delays that make the padded stream's PIAT variance grow with the
  payload rate (the effect the adversary exploits).
* :mod:`repro.padding.policies` — convenience constructors bundling a timer
  with the metadata the experiments need.

The package re-exports those three runtime modules.  The event-engine
reference (:func:`repro.experiments.base.simulate_gateway_capture_events`)
also loads the sender gateway, and this package re-exports neither gateway
module:

* :mod:`repro.padding.gateway` — the sender gateway (queue + timer + dummy
  injection) and an adaptive-masking variant used as a baseline.
* :mod:`repro.padding.receiver` — the receiver gateway (GW2), which strips
  dummies and forwards payload to the protected destination.
"""

from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import PaddingPolicy, cit_policy, vit_policy
from repro.padding.timer import (
    ConstantInterval,
    ExponentialInterval,
    IntervalGenerator,
    LognormalInterval,
    NormalInterval,
    UniformInterval,
    make_interval_generator,
)

__all__ = [
    "IntervalGenerator",
    "ConstantInterval",
    "NormalInterval",
    "UniformInterval",
    "ExponentialInterval",
    "LognormalInterval",
    "make_interval_generator",
    "InterruptDisturbance",
    "PaddingPolicy",
    "cit_policy",
    "vit_policy",
]
