"""The unprotected internetwork between the two security gateways.

The padded stream leaves GW1, traverses one or more store-and-forward routers
whose output links are shared with uncontrolled *cross traffic*, and reaches
GW2.  Queueing behind cross traffic perturbs the padded stream's packet
inter-arrival times; this is the ``delta_net`` term of the paper's model and
the mechanism behind the Figure 6 (lab cross traffic) and Figure 8
(campus/WAN) results.

* :mod:`repro.network.link` — propagation/serialisation links and simple
  sinks (null, counting, kind-based demultiplexer).
* :mod:`repro.network.router` — a FIFO output-queued router.
* :mod:`repro.network.crosstraffic` — cross-traffic generators parameterised
  by target link utilization or by a diurnal load profile.
* :mod:`repro.network.path` — wiring helpers that chain routers into an
  end-to-end unprotected path with per-hop cross traffic.
* :mod:`repro.network.topology` — the paper's three evaluation environments
  (laboratory, campus, wide-area) as ready-made presets.
* :mod:`repro.network.delay_models` — analytic M/M/1 and M/D/1 waiting-time
  moments used to predict ``sigma_net`` without running the simulator.
"""

from repro.network.crosstraffic import (
    CrossTrafficGenerator,
    attach_diurnal_cross_traffic,
    cross_traffic_rate_for_utilization,
)
from repro.network.delay_models import (
    md1_waiting_time_moments,
    mg1_waiting_time_moments,
    mm1_waiting_time_moments,
    path_piat_variance,
    piat_variance_from_waiting,
)
from repro.network.link import CountingSink, Demux, Link, NullSink
from repro.network.path import UnprotectedPath
from repro.network.router import Router
from repro.network.topology import (
    TopologySpec,
    campus_topology,
    lab_topology,
    wan_topology,
)

__all__ = [
    "Link",
    "NullSink",
    "CountingSink",
    "Demux",
    "Router",
    "CrossTrafficGenerator",
    "attach_diurnal_cross_traffic",
    "cross_traffic_rate_for_utilization",
    "UnprotectedPath",
    "TopologySpec",
    "lab_topology",
    "campus_topology",
    "wan_topology",
    "mm1_waiting_time_moments",
    "md1_waiting_time_moments",
    "mg1_waiting_time_moments",
    "piat_variance_from_waiting",
    "path_piat_variance",
]
