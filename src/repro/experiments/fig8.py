"""Figure 8: 24-hour detection rates across a campus network and a WAN.

The padded (CIT) stream traverses either a campus network (a few routers,
moderate load) or a wide-area path ("over 15 routers", heavier load); the
adversary taps right in front of the receiver gateway and classifies hourly.
Cross traffic follows a diurnal profile, so the detection rate is highest in
the small hours of the night and dips during the busy afternoon — and the
WAN, with many more congested hops, sits well below the campus curve.

The paper collected one full day per environment on real networks.  Here each
(network, hour) grid point is an independent sweep cell.  In the default
``hybrid`` collection mode the gateway capture comes from the vectorized
capture kernel and the per-hour network disturbance is applied analytically
from the M/D/1 model; that keeps the quantity the theorems depend on
(``sigma_net^2`` per hour) but not the shape of the queueing delay.
``CollectionMode.SIMULATION`` runs every hop's FIFO queue and its cross
traffic through the routed kernel instead: the ``fast`` preset then takes
about 24 s serially on a 2-vCPU machine, against under a second in hybrid
mode.

In hybrid mode the hourly cells are **two-level**: the hour only changes the
analytic network noise, so all of a network's hours share one cacheable
gateway capture (:mod:`repro.runner.capture`) — one gateway simulation per
(network, seed) instead of one per (network, hour, seed), and a warm store
performs none at all.  This also mirrors the paper's testbed, where the same
physical padded stream was observed all day: hours differ by the network
conditions, not by the gateway's behaviour.  Every hour still fans out
across the sweep runner's worker pool and is cached by content hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.theorems import detection_rate_table
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.network.topology import TopologySpec, campus_topology, wan_topology
from repro.padding.policies import cit_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec, SweepCell

#: Relative cross-traffic load for each hour of the day (00:00 first): a
#: campus/WAN shape with a night-time trough and a mid-afternoon peak.
DIURNAL_MULTIPLIERS: Tuple[float, ...] = (
    0.25, 0.18, 0.15, 0.16, 0.20, 0.30,  # 00:00 - 05:00
    0.45, 0.65, 0.85, 1.00, 1.10, 1.15,  # 06:00 - 11:00
    1.10, 1.15, 1.20, 1.15, 1.05, 0.95,  # 12:00 - 17:00
    0.85, 0.75, 0.65, 0.55, 0.42, 0.32,  # 18:00 - 23:00
)


@dataclass(frozen=True)
class Fig8Config:
    """Configuration for the Figure 8 reproduction.

    Attributes
    ----------
    networks:
        Which environments to run: any subset of ``("campus", "wan")``.
    hours:
        Hours of the day (0-23) at which the adversary classifies.
    sample_size:
        PIAT sample size per classification (1000 in the paper).
    trials:
        Training and test samples per class per hour.
    hourly_multipliers:
        Diurnal load shape shared by both environments: 24 finite values
        ``>= 0`` with a positive peak.
    """

    networks: Tuple[str, ...] = ("campus", "wan")
    hours: Tuple[int, ...] = tuple(range(0, 24, 2))
    sample_size: int = 1000
    trials: int = 20
    mode: CollectionMode = CollectionMode.HYBRID
    seed: int = 2003
    base_scenario: ScenarioConfig = field(
        default_factory=lambda: ScenarioConfig(policy=cit_policy())
    )
    entropy_bin_width: Optional[float] = None
    hourly_multipliers: Tuple[float, ...] = DIURNAL_MULTIPLIERS

    def __post_init__(self) -> None:
        if not self.networks:
            raise ConfigurationError("networks must be non-empty")
        unknown = set(self.networks) - {"campus", "wan"}
        if unknown:
            raise ConfigurationError(f"unknown networks: {sorted(unknown)}")
        if not self.hours or any(not 0 <= h < 24 for h in self.hours):
            raise ConfigurationError("hours must be a non-empty subset of 0..23")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")
        if len(self.hourly_multipliers) != 24:
            raise ConfigurationError("hourly_multipliers must contain 24 values")
        multipliers = np.asarray(self.hourly_multipliers, dtype=float)
        if not (np.all(np.isfinite(multipliers)) and np.all(multipliers >= 0.0)):
            raise ConfigurationError(
                f"hourly_multipliers must be finite and >= 0, got {self.hourly_multipliers!r}"
            )
        if not np.max(multipliers) > 0.0:
            raise ConfigurationError("hourly_multipliers must have a positive peak")

    def topology(self, network: str) -> TopologySpec:
        """The topology preset for a network name."""
        return campus_topology() if network == "campus" else wan_topology()

    def utilization_at(self, network: str, hour: int) -> float:
        """Total per-hop link utilization of the network at the given hour."""
        spec = self.topology(network)
        padded_util = self.base_scenario.policy.padded_rate_pps * (
            self.base_scenario.packet_size_bytes * 8.0 / spec.link_rate_bps
        )
        peak_cross = max((spec.diurnal_peak_utilization or 0.0) - padded_util, 0.0)
        multipliers = np.asarray(self.hourly_multipliers, dtype=float)
        scale = multipliers[hour] / float(np.max(multipliers))
        return min(padded_util + peak_cross * scale, 0.99)

    def scenario_at(self, network: str, hour: int) -> ScenarioConfig:
        """The padded-link scenario for one network at one hour."""
        spec = self.topology(network)
        return self.base_scenario.with_hops(
            spec.n_hops, link_rate_bps=spec.link_rate_bps
        ).with_cross_utilization(self.utilization_at(network, hour))


@dataclass
class Fig8Result:
    """Hourly detection rates per network and feature."""

    config: Fig8Config
    empirical_detection_rate: Dict[str, Dict[str, Dict[int, float]]]
    theoretical_detection_rate: Dict[str, Dict[str, Dict[int, float]]]
    variance_ratios: Dict[str, Dict[int, float]]
    utilizations: Dict[str, Dict[int, float]]
    empirical_ci: Optional[Dict[str, Dict[str, Dict[int, Tuple[float, float]]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(network, feature, hour, per-hop utilization, r, empirical, theory) rows."""
        for network in sorted(self.empirical_detection_rate):
            for feature in sorted(self.empirical_detection_rate[network]):
                for hour in sorted(self.empirical_detection_rate[network][feature]):
                    yield (
                        network,
                        feature,
                        hour,
                        self.utilizations[network][hour],
                        self.variance_ratios[network][hour],
                        self.empirical_detection_rate[network][feature][hour],
                        self.theoretical_detection_rate[network][feature][hour],
                    )

    def nightly_minus_midday(self, network: str, feature: str) -> float:
        """Detection-rate gap between the quietest and busiest measured hours."""
        rates = self.empirical_detection_rate[network][feature]
        utils = self.utilizations[network]
        quiet_hour = min(rates, key=lambda h: utils[h])
        busy_hour = max(rates, key=lambda h: utils[h])
        return rates[quiet_hour] - rates[busy_hour]

    def to_text(self) -> str:
        title = (
            f"Figure 8: hourly detection rate (sample size {self.config.sample_size})"
            + seed_suffix(self.n_seeds)
        )
        headers = ["network", "feature", "hour", "hop utilization", "r", "empirical", "theorem"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers,
                rows,
                6,
                self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1], {}).get(row[2]),
            )
        sections = [(title, format_table(headers, rows))]
        return render_experiment_report("Figure 8 — campus and wide-area networks", sections)


class Fig8Experiment:
    """Runs the Figure 8 reproduction."""

    #: Registry name; also the prefix of every cell key this experiment emits.
    name = "fig8"

    def __init__(self, config: Optional[Fig8Config] = None) -> None:
        self.config = config if config is not None else Fig8Config()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Figure 8: 24-hour hourly detection rates across a campus network and "
            "a WAN carrying diurnal cross traffic"
        )

    @staticmethod
    def point_key(network: str, hour: int) -> str:
        """The grid-point key of one (network, hour)."""
        return f"fig8/{network}/hour={hour:02d}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """One grid point per (network, hour), fanned out over the seeds.

        In hybrid mode the points of one network share a gateway capture:
        their seed offsets are per-network (the hour only changes the
        analytic noise), and ``shared_capture`` lets the runner factor the
        event simulation out into one cacheable
        :class:`~repro.runner.capture.CaptureSpec` per (network, seed).  The
        network-noise streams stay salted per (network, hour) via
        ``noise_offsets``, so hourly grid points share the gateway but draw
        statistically independent noise — as a physical testbed would.  In
        the other modes every (network, hour) keeps its own fully
        independent capture streams, exactly as before.
        """
        from repro.runner import GridPoint, GridSpec

        config = self.config
        shared = config.mode is CollectionMode.HYBRID
        points = []
        for network in config.networks:
            for hour in config.hours:
                per_hour = (f"train-{network}-{hour}", f"test-{network}-{hour}")
                if shared:
                    offsets = (f"train-{network}", f"test-{network}")
                    noise = per_hour
                else:
                    offsets = per_hour
                    noise = None
                points.append(
                    GridPoint(
                        key=self.point_key(network, hour),
                        scenario=config.scenario_at(network, hour),
                        seed_offsets=offsets,
                        shared_capture=shared,
                        capture_key=f"fig8/{network}/gateway-capture",
                        noise_offsets=noise,
                    )
                )
        return GridSpec.from_points(
            "fig8",
            points,
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
            entropy_bin_width=config.entropy_bin_width,
        )

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """One sweep-runner cell per (network, hour, seed) grid point."""
        return self.grid(seeds).cells()

    def assemble(
        self,
        report,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> Fig8Result:
        """Build the figure result from a sweep report containing this grid's cells."""
        from repro.runner import DEFAULT_FEATURES, experiment_view

        config = self.config
        n = config.sample_size
        view = experiment_view(report, self.cells(seeds), confidence=confidence)
        empirical: Dict[str, Dict[str, Dict[int, float]]] = {}
        theoretical: Dict[str, Dict[str, Dict[int, float]]] = {}
        empirical_ci: Dict[str, Any] = {}
        ratios: Dict[str, Dict[int, float]] = {}
        utilizations: Dict[str, Dict[int, float]] = {}
        for network in config.networks:
            scenarios = {hour: config.scenario_at(network, hour) for hour in config.hours}
            utilizations[network] = {h: s.cross_utilization for h, s in scenarios.items()}
            ratios[network] = {h: s.variance_ratio() for h, s in scenarios.items()}
            empirical[network], empirical_ci[network] = view.table(
                {hour: (self.point_key(network, hour), n) for hour in config.hours},
                DEFAULT_FEATURES,
            )
            theoretical[network] = detection_rate_table(
                {hour: (r, n) for hour, r in ratios[network].items()}, DEFAULT_FEATURES
            )
        return Fig8Result(
            config=config,
            empirical_detection_rate=empirical,
            theoretical_detection_rate=theoretical,
            variance_ratios=ratios,
            utilizations=utilizations,
            empirical_ci=empirical_ci if view.confidence is not None else None,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


__all__ = ["Fig8Config", "Fig8Experiment", "Fig8Result"]
