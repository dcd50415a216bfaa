"""Evaluation topologies: laboratory, campus network and wide-area network.

The paper evaluates three environments (Figures 3 and 7):

* **Laboratory** — GW1 and GW2 connected by a single Marconi ESR-5000
  router; a workstation in subnet C generates controllable cross traffic
  that shares the router's outgoing link (Figures 4–6).
* **Campus** — the padded stream traverses the Texas A&M campus network,
  modelled here as a short chain of enterprise routers with a moderate
  diurnal load (Figure 8(a)).
* **WAN** — the Ohio State → Texas A&M Internet path, "over 15 routers",
  modelled as a long chain with heavier diurnal load (Figure 8(b)).

A :class:`TopologySpec` captures the knobs (hop count, link rates, cross
load), and :func:`build_path` turns it into a wired
:class:`~repro.network.path.UnprotectedPath`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import NetworkError
from repro.network.crosstraffic import cross_traffic_rate_for_utilization
from repro.network.link import PacketSink
from repro.network.path import UnprotectedPath
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.traffic.schedule import DiurnalProfile
from repro.units import PAPER_PACKET_SIZE_BYTES, PAPER_TIMER_INTERVAL_S, rate_for_utilization


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of an unprotected-path topology.

    Attributes
    ----------
    name:
        Topology label ("lab", "campus", "wan", or custom).
    n_hops:
        Number of routers between the gateways.
    link_rate_bps:
        Output-link capacity of each router.
    propagation_delay:
        Per-hop propagation delay (seconds).
    cross_utilization:
        Constant cross-traffic utilization applied at every hop.  Ignored
        when ``diurnal_peak_utilization`` is set.
    diurnal_peak_utilization:
        If set, cross traffic follows the default diurnal profile and reaches
        this utilization at the busiest hour of the day.
    packet_size_bytes:
        Packet size used for utilization arithmetic.
    padded_rate_pps:
        Rate of the padded stream sharing each link (the paper's 100 pps for
        a 10 ms timer); used so "utilization" means *total* link utilization.
    """

    name: str
    n_hops: int
    link_rate_bps: float = 80e6
    propagation_delay: float = 0.5e-3
    cross_utilization: float = 0.0
    diurnal_peak_utilization: Optional[float] = None
    packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES
    padded_rate_pps: float = 1.0 / PAPER_TIMER_INTERVAL_S

    def __post_init__(self) -> None:
        if self.n_hops < 0:
            raise NetworkError("n_hops must be >= 0")
        if self.link_rate_bps <= 0:
            raise NetworkError("link_rate_bps must be positive")
        if not 0.0 <= self.cross_utilization < 1.0:
            raise NetworkError("cross_utilization must lie in [0, 1)")
        if self.diurnal_peak_utilization is not None and not (
            0.0 <= self.diurnal_peak_utilization < 1.0
        ):
            raise NetworkError("diurnal_peak_utilization must lie in [0, 1)")

    @property
    def hop_service_time(self) -> float:
        """Serialisation time of one padded packet at each hop (seconds)."""
        return self.packet_size_bytes * 8.0 / self.link_rate_bps

    def cross_rate_pps(self) -> float:
        """Constant cross-traffic rate per hop implied by ``cross_utilization``."""
        if self.cross_utilization == 0.0:
            return 0.0
        return cross_traffic_rate_for_utilization(
            self.cross_utilization,
            self.link_rate_bps,
            self.packet_size_bytes,
            padded_rate_pps=self.padded_rate_pps,
        )


def lab_topology(cross_utilization: float = 0.0, link_rate_bps: float = 80e6) -> TopologySpec:
    """The laboratory setup of Figure 3: one shared router.

    ``cross_utilization`` is the *total* utilization of the shared outgoing
    link (padded stream plus subnet-C cross traffic), matching the x-axis of
    Figure 6.  The default 80 Mbit/s link rate is a calibration choice: it
    makes one hop's queueing jitter at 40 % utilization a few times larger
    than the gateway's own jitter, which reproduces the Figure 6 shape
    (see DESIGN.md, "Calibration targets").
    """
    return TopologySpec(
        name="lab",
        n_hops=1,
        link_rate_bps=link_rate_bps,
        cross_utilization=cross_utilization,
    )


def campus_topology(
    peak_utilization: float = 0.15, n_hops: int = 3, link_rate_bps: float = 80e6
) -> TopologySpec:
    """A medium-size enterprise (campus) network: a short, lightly loaded chain."""
    return TopologySpec(
        name="campus",
        n_hops=n_hops,
        link_rate_bps=link_rate_bps,
        diurnal_peak_utilization=peak_utilization,
    )


def wan_topology(
    peak_utilization: float = 0.25, n_hops: int = 15, link_rate_bps: float = 80e6
) -> TopologySpec:
    """The Ohio State → Texas A&M Internet path: 15 routers, heavier load."""
    return TopologySpec(
        name="wan",
        n_hops=n_hops,
        link_rate_bps=link_rate_bps,
        diurnal_peak_utilization=peak_utilization,
    )


def build_path(
    spec: TopologySpec,
    simulator: Simulator,
    exit_sink: PacketSink,
    streams: Optional[RandomStreams] = None,
) -> UnprotectedPath:
    """Materialise a :class:`TopologySpec` into a wired, cross-loaded path.

    Cross-traffic generators are attached (one per hop) but not started;
    call :meth:`UnprotectedPath.start_cross_traffic` when the experiment
    begins so that warm-up handling stays in the caller's hands.
    """
    streams = streams if streams is not None else RandomStreams(seed=None)
    path = UnprotectedPath(
        simulator,
        exit_sink=exit_sink,
        n_hops=spec.n_hops,
        link_rate_bps=spec.link_rate_bps,
        propagation_delay=spec.propagation_delay,
        packet_size_bytes=spec.packet_size_bytes,
        name=spec.name,
    )
    for hop in range(spec.n_hops):
        rng = streams.get(f"{spec.name}-cross-hop{hop}")
        if spec.diurnal_peak_utilization is not None:
            peak_rate = rate_for_utilization(
                spec.diurnal_peak_utilization, spec.packet_size_bytes, spec.link_rate_bps
            )
            peak_cross = max(peak_rate - spec.padded_rate_pps, 0.0)
            multipliers = np.asarray(DiurnalProfile.DEFAULT_MULTIPLIERS)
            base = peak_cross / float(np.max(multipliers))
            profile = DiurnalProfile(base_rate_pps=base, hourly_multipliers=multipliers)
            path.attach_cross_traffic(hop, profile, rng=rng)
        elif spec.cross_utilization > 0.0:
            path.attach_cross_traffic(hop, spec.cross_rate_pps(), rng=rng)
    return path


__all__ = [
    "TopologySpec",
    "lab_topology",
    "campus_topology",
    "wan_topology",
    "build_path",
]
