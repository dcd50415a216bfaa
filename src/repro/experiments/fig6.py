"""Figure 6: CIT padding behind a shared router with cross traffic.

The laboratory setup of Figure 3: the padded stream and a controllable cross
flow share one router's outgoing link, and the adversary taps that link's far
end.  The x-axis is the shared link's utilization, the y-axis the detection
rate at a fixed sample size (1000 in the paper).  Expected shape: detection
decreases with utilization because queueing noise (``sigma_net``) dilutes the
gateway's payload-dependent jitter; sample entropy degrades more gracefully
than sample variance (outlier sensitivity); the sample mean stays near 50 %.

The utilization sweep is one :class:`~repro.runner.grid.GridSpec` point per
utilization; running it over several seeds reports mean ± bootstrap CI per
grid point.  In hybrid mode the points share one gateway capture per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.theorems import detection_rate_table
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.padding.policies import cit_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import ExperimentView, GridSpec, SweepCell


def _lab_scenario() -> ScenarioConfig:
    """The laboratory scenario: CIT 10 ms, one shared 80 Mbit/s router hop."""
    return ScenarioConfig(policy=cit_policy(), n_hops=1, link_rate_bps=80e6)


@dataclass(frozen=True)
class Fig6Config:
    """Configuration for the Figure 6 reproduction.

    Attributes
    ----------
    utilizations:
        Total shared-link utilizations swept on the x-axis.
    sample_size:
        PIAT sample size used by the adversary (1000 in the paper).
    trials:
        Training and test samples per class per utilization point.
    """

    utilizations: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    sample_size: int = 1000
    trials: int = 20
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 2003
    scenario: ScenarioConfig = field(default_factory=_lab_scenario)
    entropy_bin_width: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.utilizations:
            raise ConfigurationError("utilizations must be non-empty")
        if any(not 0.0 <= u < 1.0 for u in self.utilizations):
            raise ConfigurationError("utilizations must lie in [0, 1)")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")
        if self.scenario.n_hops < 1:
            raise ConfigurationError("the Figure 6 scenario needs at least one router hop")


@dataclass
class Fig6Result:
    """Detection rate versus shared-link utilization."""

    config: Fig6Config
    empirical_detection_rate: Dict[str, Dict[float, float]]
    theoretical_detection_rate: Dict[str, Dict[float, float]]
    variance_ratios: Dict[float, float]
    empirical_ci: Optional[Dict[str, Dict[float, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(feature, target utilization, r, empirical, theoretical) rows."""
        for feature, by_util in sorted(self.empirical_detection_rate.items()):
            for utilization, empirical in sorted(by_util.items()):
                yield (
                    feature,
                    utilization,
                    self.variance_ratios[utilization],
                    empirical,
                    self.theoretical_detection_rate[feature][utilization],
                )

    def to_text(self) -> str:
        title = (
            f"Figure 6: detection rate vs link utilization (sample size {self.config.sample_size})"
            + seed_suffix(self.n_seeds)
        )
        headers = ["feature", "link utilization", "r", "empirical", "theorem"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers,
                rows,
                4,
                self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        sections = [(title, format_table(headers, rows))]
        return render_experiment_report(
            "Figure 6 — CIT padding with laboratory cross traffic", sections
        )


class Fig6Experiment:
    """Runs the Figure 6 reproduction."""

    #: Registry name; also the prefix of every cell key this experiment emits.
    name = "fig6"

    config_cls = Fig6Config

    #: Config keyword arguments per registry preset; the registry adds the seed.
    presets = {
        "paper": {},
        "fast": dict(trials=15, mode=CollectionMode.HYBRID),
        "quick": dict(
            utilizations=(0.05, 0.4), sample_size=400, trials=8, mode=CollectionMode.HYBRID
        ),
        "smoke": dict(
            utilizations=(0.05, 0.3), sample_size=200, trials=6, mode=CollectionMode.ANALYTIC
        ),
    }

    def __init__(self, config: Optional[Fig6Config] = None) -> None:
        self.config = config if config is not None else Fig6Config()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Figure 6: CIT padding behind a shared router — detection rate vs the "
            "shared link's cross-traffic utilization"
        )

    @staticmethod
    def point_key(utilization: float) -> str:
        """The grid-point key of one utilization value.

        Coerced to float first, as ``GridSpec.product`` keys a utilization
        axis, so e.g. an integer ``0`` in the config gives the same key as
        ``0.0``.
        """
        return f"fig6/utilization={float(utilization)!r}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The utilization sweep: one grid point per utilization.

        Only the shared router's cross traffic changes along the axis, so in
        hybrid mode every point shares one gateway capture per seed
        (``shared_capture``; the capture fingerprint ignores utilization).
        The points keep the default seed offsets and no ``noise_offsets``,
        so their network noise is drawn from exactly the streams a
        self-contained hybrid cell uses and the numbers are unchanged.
        """
        from repro.runner import GridPoint, GridSpec

        config = self.config
        shared = config.mode is CollectionMode.HYBRID
        points = [
            GridPoint(
                key=self.point_key(utilization),
                scenario=replace(config.scenario, cross_utilization=float(utilization)),
                shared_capture=shared,
                capture_key="fig6/gateway-capture",
            )
            for utilization in config.utilizations
        ]
        return GridSpec.from_points(
            "fig6",
            points,
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
            entropy_bin_width=config.entropy_bin_width,
        )

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """One sweep-runner cell per (utilization, seed) grid point."""
        return self.grid(seeds).cells()

    def assemble(self, view: "ExperimentView") -> Fig6Result:
        """Build the figure result from the view of this grid's cells."""
        from repro.runner import DEFAULT_FEATURES

        config = self.config
        n = config.sample_size
        ratios = {
            utilization: config.scenario.with_cross_utilization(utilization).variance_ratio()
            for utilization in config.utilizations
        }
        empirical, empirical_ci = view.table(
            {utilization: (self.point_key(utilization), n) for utilization in ratios},
            DEFAULT_FEATURES,
        )
        return Fig6Result(
            config=config,
            empirical_detection_rate=empirical,
            theoretical_detection_rate=detection_rate_table(
                {utilization: (r, n) for utilization, r in ratios.items()}, DEFAULT_FEATURES
            ),
            variance_ratios=ratios,
            empirical_ci=empirical_ci,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


__all__ = ["Fig6Config", "Fig6Experiment", "Fig6Result"]
