"""Ablation experiments beyond the paper's figures.

The paper fixes several knobs of the adversary and of the evaluation setup;
these experiments sweep them to show the headline result is not an artefact
of a lucky constant.  Each one implements the same protocol as the figure
experiments (``cells(seeds)`` / ``assemble(report, seeds, confidence)``),
so they pool into the same sweep runner, cache into the same
results store, aggregate across seeds the same way — and, registered under
:mod:`repro.api`, run from the CLI like any figure:

``ablation_estimators``
    The entropy histogram bin width and the KDE bandwidth rule of the
    adversary's pipeline, swept on the Figure 4 scenario.
``ablation_tap``
    The number of loaded router hops between the sender gateway and the
    adversary's tap — how much protection "distance behind noisy routers"
    buys a CIT system.
``ablation_vit``
    The VIT timer's interval *distribution family* at identical
    ``(tau, sigma_T)`` — the defence needs variance, not any particular
    shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.padding.policies import PaddingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec, SweepCell

# =====================================================================
# Estimator settings
# =====================================================================
@dataclass(frozen=True)
class EstimatorAblationConfig:
    """Configuration for the adversary-estimator ablation.

    Attributes
    ----------
    bin_widths:
        Histogram bin widths (seconds) swept for the sample-entropy feature.
    kde_bandwidths:
        KDE bandwidth settings swept for the variance feature: rule names
        (``"silverman"``/``"scott"``) or positive multiples of the Silverman
        bandwidth of the pooled training features.
    sample_size, trials, mode, seed, scenario:
        As in the figure configs; the default scenario is Figure 4's (CIT,
        tap at the gateway, no cross traffic).
    """

    bin_widths: Tuple[float, ...] = (5e-6, 2e-5, 5e-5, 2e-4)
    kde_bandwidths: Tuple[Union[str, float], ...] = ("silverman", "scott", 0.5, 2.0)
    sample_size: int = 1000
    trials: int = 15
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 17
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.bin_widths and not self.kde_bandwidths:
            raise ConfigurationError(
                "at least one of bin_widths / kde_bandwidths must be non-empty"
            )
        if any(not w > 0.0 for w in self.bin_widths):
            raise ConfigurationError("every entropy bin width must be positive")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")


@dataclass
class EstimatorAblationResult:
    """Detection rate per estimator setting (bin width / KDE bandwidth)."""

    config: EstimatorAblationConfig
    detection_rate_by_bin_width: Dict[float, float]
    detection_rate_by_bandwidth: Dict[Union[str, float], float]
    bin_width_ci: Optional[Dict[float, Tuple[float, float]]] = None
    bandwidth_ci: Optional[Dict[Union[str, float], Tuple[float, float]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def to_text(self) -> str:
        sections = []
        n = self.config.sample_size
        if self.detection_rate_by_bin_width:
            headers = ["bin width (s)", "detection rate"]
            rows = [(w, rate) for w, rate in self.detection_rate_by_bin_width.items()]
            if self.bin_width_ci is not None:
                headers, rows = with_ci_column(
                    headers, rows, 2, self.confidence,
                    lambda row: self.bin_width_ci.get(row[0]),
                )
            sections.append(
                (
                    f"Entropy histogram bin width (n={n})" + seed_suffix(self.n_seeds),
                    format_table(headers, rows),
                )
            )
        if self.detection_rate_by_bandwidth:
            headers = ["bandwidth rule / multiple of Silverman", "detection rate"]
            rows = [
                (str(b), rate) for b, rate in self.detection_rate_by_bandwidth.items()
            ]
            key_of = {str(b): b for b in self.detection_rate_by_bandwidth}
            if self.bandwidth_ci is not None:
                headers, rows = with_ci_column(
                    headers, rows, 2, self.confidence,
                    lambda row: self.bandwidth_ci.get(key_of[row[0]]),
                )
            sections.append(
                (
                    f"KDE bandwidth for the variance feature (n={n})"
                    + seed_suffix(self.n_seeds),
                    format_table(headers, rows),
                )
            )
        return render_experiment_report(
            "Ablation — adversary estimator settings", sections
        )


class EstimatorAblationExperiment:
    """Sweeps the adversary's entropy bin width and KDE bandwidth rule."""

    name = "ablation_estimators"

    def __init__(self, config: Optional[EstimatorAblationConfig] = None) -> None:
        self.config = config if config is not None else EstimatorAblationConfig()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Ablation: entropy histogram bin width and KDE bandwidth rule of the "
            "adversary's estimators, swept on the Figure 4 scenario"
        )

    @staticmethod
    def bin_width_key(bin_width: float) -> str:
        """The grid-point key of one entropy-bin-width setting."""
        return f"ablation_estimators/bin_width={bin_width!r}"

    @staticmethod
    def bandwidth_key(bandwidth: Union[str, float]) -> str:
        """The grid-point key of one KDE-bandwidth setting."""
        return f"ablation_estimators/bandwidth={bandwidth!r}"

    def grids(self, seeds: Optional[Sequence[int]] = None) -> "List[GridSpec]":
        """One single-point grid per estimator setting.

        The two knobs are cell options (``entropy_bin_width`` with the
        entropy feature, ``kde_bandwidth`` with the variance feature), which
        a :class:`~repro.runner.grid.GridSpec` applies to all of its points.
        """
        from repro.runner import GridPoint, GridSpec

        config = self.config
        common = dict(
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
        )
        return [
            GridSpec.from_points(
                self.name,
                [GridPoint(key=self.bin_width_key(bin_width), scenario=config.scenario)],
                features=("entropy",),
                entropy_bin_width=bin_width,
                **common,
            )
            for bin_width in config.bin_widths
        ] + [
            GridSpec.from_points(
                self.name,
                [GridPoint(key=self.bandwidth_key(bandwidth), scenario=config.scenario)],
                features=("variance",),
                kde_bandwidth=bandwidth,
                **common,
            )
            for bandwidth in config.kde_bandwidths
        ]

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """One cell per (estimator setting, seed)."""
        return [cell for grid in self.grids(seeds) for cell in grid.cells()]

    def assemble(
        self,
        report,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> EstimatorAblationResult:
        """Build the ablation result from a sweep report containing its cells."""
        from repro.runner import experiment_view

        config = self.config
        n = config.sample_size
        view = experiment_view(report, self.cells(seeds), confidence=confidence)
        by_bin, bin_ci = view.table(
            {width: (self.bin_width_key(width), n) for width in config.bin_widths},
            ("entropy",),
        )
        by_bandwidth, bandwidth_ci = view.table(
            {bandwidth: (self.bandwidth_key(bandwidth), n) for bandwidth in config.kde_bandwidths},
            ("variance",),
        )
        return EstimatorAblationResult(
            config=config,
            detection_rate_by_bin_width=by_bin["entropy"],
            detection_rate_by_bandwidth=by_bandwidth["variance"],
            bin_width_ci=bin_ci["entropy"] if bin_ci is not None else None,
            bandwidth_ci=bandwidth_ci["variance"] if bandwidth_ci is not None else None,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


# =====================================================================
# Tap position
# =====================================================================
@dataclass(frozen=True)
class TapAblationConfig:
    """Configuration for the tap-position ablation.

    Attributes
    ----------
    hop_counts:
        Numbers of loaded router hops between the gateway and the tap.  The
        0-hop point taps right at the gateway and carries no cross traffic.
    per_hop_utilization:
        Shared-link utilization of every loaded hop.
    """

    hop_counts: Tuple[int, ...] = (0, 1, 3, 8, 15)
    per_hop_utilization: float = 0.2
    sample_size: int = 1000
    trials: int = 15
    mode: CollectionMode = CollectionMode.HYBRID
    seed: int = 23
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.hop_counts:
            raise ConfigurationError("hop_counts must be non-empty")
        if any(h < 0 for h in self.hop_counts):
            raise ConfigurationError("every hop count must be >= 0")
        if not 0.0 < self.per_hop_utilization < 1.0:
            raise ConfigurationError("per_hop_utilization must lie in (0, 1)")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")

    def scenario_at(self, hops: int) -> ScenarioConfig:
        """The padded-link scenario with the tap ``hops`` loaded hops away."""
        return self.scenario.with_hops(hops).with_cross_utilization(
            self.per_hop_utilization if hops else 0.0
        )


@dataclass
class TapAblationResult:
    """Detection rate versus the tap's distance behind loaded routers."""

    config: TapAblationConfig
    empirical_detection_rate: Dict[str, Dict[int, float]]
    variance_ratios: Dict[int, float]
    empirical_ci: Optional[Dict[str, Dict[int, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(feature, hops, r, empirical) rows."""
        for feature, by_hops in sorted(self.empirical_detection_rate.items()):
            for hops, empirical in sorted(by_hops.items()):
                yield (feature, hops, self.variance_ratios[hops], empirical)

    def to_text(self) -> str:
        title = (
            f"Detection rate vs tap position (sample size {self.config.sample_size}, "
            f"{self.config.per_hop_utilization:g} utilization per loaded hop)"
            + seed_suffix(self.n_seeds)
        )
        headers = ["feature", "hops between GW1 and tap", "r", "empirical"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers, rows, 4, self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        return render_experiment_report(
            "Ablation — adversary tap position", [(title, format_table(headers, rows))]
        )


class TapAblationExperiment:
    """Sweeps the number of loaded hops between the gateway and the tap."""

    name = "ablation_tap"

    def __init__(self, config: Optional[TapAblationConfig] = None) -> None:
        self.config = config if config is not None else TapAblationConfig()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Ablation: how much protection distance behind loaded routers buys — "
            "detection rate vs the number of hops between gateway and tap"
        )

    @staticmethod
    def point_key(hops: int) -> str:
        """The grid-point key of one tap position."""
        return f"ablation_tap/hops={hops}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """Explicit grid points (the 0-hop tap is not a pure axis product).

        In hybrid mode the points are two-level: every tap position shares
        one cached gateway capture, with per-position noise salts.
        """
        from repro.runner import GridPoint, GridSpec

        config = self.config
        points = [
            GridPoint(
                key=self.point_key(hops),
                scenario=config.scenario_at(hops),
                shared_capture=True,
                capture_key="ablation_tap/gateway-capture",
                noise_offsets=(f"train-hops{hops}", f"test-hops{hops}"),
            )
            for hops in config.hop_counts
        ]
        return GridSpec.from_points(
            "ablation_tap",
            points,
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
        )

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """One sweep-runner cell per (tap position, seed) grid point."""
        return self.grid(seeds).cells()

    def assemble(
        self,
        report,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> TapAblationResult:
        """Build the ablation result from a sweep report containing its cells."""
        from repro.runner import DEFAULT_FEATURES, experiment_view

        config = self.config
        view = experiment_view(report, self.cells(seeds), confidence=confidence)
        empirical, empirical_ci = view.table(
            {hops: (self.point_key(hops), config.sample_size) for hops in config.hop_counts},
            DEFAULT_FEATURES,
        )
        return TapAblationResult(
            config=config,
            empirical_detection_rate=empirical,
            variance_ratios={
                hops: config.scenario_at(hops).variance_ratio() for hops in config.hop_counts
            },
            empirical_ci=empirical_ci,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


# =====================================================================
# VIT interval distribution family
# =====================================================================
@dataclass(frozen=True)
class VitFamilyAblationConfig:
    """Configuration for the VIT distribution-family ablation.

    Attributes
    ----------
    families:
        Interval distribution families run at identical ``(tau, sigma_T)``.
    sigma_t:
        Timer standard deviation shared by every family (seconds).
    """

    families: Tuple[str, ...] = ("normal", "uniform", "exponential", "lognormal")
    sigma_t: float = 3e-4
    sample_size: int = 1000
    trials: int = 12
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 7
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.families:
            raise ConfigurationError("families must be non-empty")
        if not self.sigma_t > 0.0:
            raise ConfigurationError("sigma_t must be positive")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")

    def policy_for(self, family: str) -> PaddingPolicy:
        """The VIT policy realising ``sigma_t`` with the given family."""
        return PaddingPolicy(
            name=f"VIT-{family}",
            kind="VIT",
            mean_interval=self.scenario.policy.mean_interval,
            sigma_t=self.sigma_t,
            family=family,
        )


@dataclass
class VitFamilyAblationResult:
    """Detection rate per VIT interval distribution family."""

    config: VitFamilyAblationConfig
    empirical_detection_rate: Dict[str, Dict[str, float]]
    empirical_ci: Optional[Dict[str, Dict[str, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(feature, family, empirical) rows."""
        for feature, by_family in sorted(self.empirical_detection_rate.items()):
            for family, empirical in by_family.items():
                yield (feature, family, empirical)

    def to_text(self) -> str:
        title = (
            f"Detection rate vs VIT family (sigma_T={self.config.sigma_t:g} s, "
            f"sample size {self.config.sample_size})" + seed_suffix(self.n_seeds)
        )
        headers = ["feature", "VIT family", "empirical"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers, rows, 3, self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        return render_experiment_report(
            "Ablation — VIT interval distribution family",
            [(title, format_table(headers, rows))],
        )


class VitFamilyAblationExperiment:
    """Sweeps the VIT timer's interval distribution family."""

    name = "ablation_vit"

    def __init__(self, config: Optional[VitFamilyAblationConfig] = None) -> None:
        self.config = config if config is not None else VitFamilyAblationConfig()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Ablation: VIT interval distribution families at identical (tau, "
            "sigma_T) — the defence needs variance, not a particular shape"
        )

    def point_key(self, family: str) -> str:
        """The grid-point key of one interval family."""
        return f"ablation_vit/policy=VIT-{family}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The family sweep as a policy axis of a grid product."""
        from repro.runner import GridSpec

        config = self.config
        return GridSpec.product(
            "ablation_vit",
            config.scenario,
            policies=[config.policy_for(family) for family in config.families],
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
        )

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """One sweep-runner cell per (family, seed) grid point."""
        return self.grid(seeds).cells()

    def assemble(
        self,
        report,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> VitFamilyAblationResult:
        """Build the ablation result from a sweep report containing its cells."""
        from repro.runner import DEFAULT_FEATURES, experiment_view

        config = self.config
        view = experiment_view(report, self.cells(seeds), confidence=confidence)
        empirical, empirical_ci = view.table(
            {family: (self.point_key(family), config.sample_size) for family in config.families},
            DEFAULT_FEATURES,
        )
        return VitFamilyAblationResult(
            config=config,
            empirical_detection_rate=empirical,
            empirical_ci=empirical_ci,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


__all__ = [
    "EstimatorAblationConfig",
    "EstimatorAblationExperiment",
    "EstimatorAblationResult",
    "TapAblationConfig",
    "TapAblationExperiment",
    "TapAblationResult",
    "VitFamilyAblationConfig",
    "VitFamilyAblationExperiment",
    "VitFamilyAblationResult",
]
