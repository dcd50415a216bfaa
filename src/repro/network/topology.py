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
load).  The per-hop propagation delay and the cross-traffic rate for a
target utilization, which the capture kernel and its event-engine
reference share, live here too, so the runtime reads them without loading
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import NetworkError
from repro.units import PAPER_PACKET_SIZE_BYTES, PAPER_TIMER_INTERVAL_S, rate_for_utilization

#: One-way propagation delay of each hop's output link, in seconds.
HOP_PROPAGATION_DELAY_S = 0.5e-3


def cross_traffic_rate_for_utilization(
    target_utilization: float,
    link_rate_bps: float,
    packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
    padded_rate_pps: float = 0.0,
) -> float:
    """Cross-traffic packet rate that drives a shared link to ``target_utilization``.

    The padded stream itself consumes part of the link; its contribution
    (``padded_rate_pps`` packets/s of the same size) is subtracted so that the
    *total* utilization, padded plus cross, matches the target — mirroring how
    the paper reports "link utilization" on the Figure 6 x-axis.

    Raises
    ------
    NetworkError
        If the padded stream alone already exceeds the target utilization.
    """
    if not 0.0 <= target_utilization < 1.0:
        raise NetworkError("target utilization must lie in [0, 1)")
    total_rate = rate_for_utilization(target_utilization, packet_size_bytes, link_rate_bps)
    cross_rate = total_rate - padded_rate_pps
    if cross_rate < 0.0:
        raise NetworkError(
            "padded traffic alone exceeds the requested utilization "
            f"({padded_rate_pps:.1f} pps > {total_rate:.1f} pps)"
        )
    return cross_rate


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
        If set, cross traffic follows a diurnal profile (Figure 8's
        :data:`repro.experiments.fig8.DIURNAL_MULTIPLIERS`) and reaches this
        utilization at the busiest hour of the day.
    packet_size_bytes:
        Packet size used for utilization arithmetic.
    padded_rate_pps:
        Rate of the padded stream sharing each link (the paper's 100 pps for
        a 10 ms timer); used so "utilization" means *total* link utilization.
    """

    name: str
    n_hops: int
    link_rate_bps: float = 80e6
    propagation_delay: float = HOP_PROPAGATION_DELAY_S
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


__all__ = [
    "HOP_PROPAGATION_DELAY_S",
    "cross_traffic_rate_for_utilization",
    "TopologySpec",
    "lab_topology",
    "campus_topology",
    "wan_topology",
]
