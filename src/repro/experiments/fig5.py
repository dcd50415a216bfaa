"""Figure 5: VIT padding defeats the attack.

* **Figure 5(a)** — empirical detection rate as a function of the timer
  standard deviation ``sigma_T`` at a fixed sample size (2000 in the paper):
  as ``sigma_T`` grows past the gateway's own jitter, the detection rate of
  every feature collapses to the 50 % floor.
* **Figure 5(b)** — the theoretical sample size needed for 99 % detection as
  a function of ``sigma_T`` (from the inverted Theorems 2 and 3): it explodes
  beyond any collectable amount of traffic, e.g. > 1e11 intervals at
  ``sigma_T = 1 ms``.

The ``sigma_T`` sweep is a :class:`~repro.runner.grid.GridSpec` over one
explicit grid point per timer spread (one CIT policy for the 0 point, one VIT
policy per positive value); running it over several seeds reports mean ±
bootstrap CI per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.sample_size import sample_size_vs_sigma_t
from repro.core.theorems import detection_rate_table
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.padding.policies import PaddingPolicy, cit_policy, vit_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec, SweepCell


@dataclass(frozen=True)
class Fig5Config:
    """Configuration for the Figure 5 reproduction.

    Attributes
    ----------
    sigma_t_values:
        Timer standard deviations swept on the x-axis (seconds).  0 means CIT
        and serves as the reference point.
    sample_size:
        PIAT sample size used by the adversary (2000 in the paper).
    trials:
        Training and test samples per class per point.
    features:
        Which feature statistics to evaluate empirically.
    target_detection_rate:
        The target used for the Figure 5(b) sample-size curve (0.99).
    sigma_t_curve:
        ``sigma_T`` grid for the theoretical Figure 5(b) curve (defaults to
        a finer grid spanning the empirical sweep).
    """

    sigma_t_values: Tuple[float, ...] = (0.0, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3)
    sample_size: int = 2000
    trials: int = 20
    features: Tuple[str, ...] = ("mean", "variance", "entropy")
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 2003
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    entropy_bin_width: Optional[float] = None
    target_detection_rate: float = 0.99
    sigma_t_curve: Tuple[float, ...] = (
        1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2,
    )

    def __post_init__(self) -> None:
        if not self.sigma_t_values:
            raise ConfigurationError("sigma_t_values must be non-empty")
        if any(s < 0.0 for s in self.sigma_t_values):
            raise ConfigurationError("sigma_T values must be >= 0")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")
        if not self.features:
            raise ConfigurationError("features must be non-empty")
        if not 0.5 < self.target_detection_rate < 1.0:
            raise ConfigurationError("target_detection_rate must lie in (0.5, 1)")

    def policy_for(self, sigma_t: float) -> PaddingPolicy:
        """The padding policy realising the given ``sigma_T``."""
        if sigma_t == 0.0:
            return cit_policy(self.scenario.policy.mean_interval)
        return vit_policy(sigma_t=sigma_t, mean_interval=self.scenario.policy.mean_interval)

    def scenario_for(self, sigma_t: float) -> ScenarioConfig:
        """The scenario with the padding policy set to the given ``sigma_T``."""
        return self.scenario.with_policy(self.policy_for(sigma_t))


@dataclass
class Fig5Result:
    """Numeric content of both Figure 5 panels."""

    config: Fig5Config
    empirical_detection_rate: Dict[str, Dict[float, float]]
    theoretical_detection_rate: Dict[str, Dict[float, float]]
    variance_ratios: Dict[float, float]
    required_sample_for_target: Dict[str, Dict[float, float]]
    empirical_ci: Optional[Dict[str, Dict[float, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows_panel_a(self):
        """(feature, sigma_T, r, empirical, theoretical) rows."""
        for feature, by_sigma in sorted(self.empirical_detection_rate.items()):
            for sigma_t, empirical in sorted(by_sigma.items()):
                yield (
                    feature,
                    sigma_t,
                    self.variance_ratios[sigma_t],
                    empirical,
                    self.theoretical_detection_rate[feature][sigma_t],
                )

    def rows_panel_b(self):
        """(feature, sigma_T, required sample size) rows."""
        for feature, by_sigma in sorted(self.required_sample_for_target.items()):
            for sigma_t, required in sorted(by_sigma.items()):
                yield (feature, sigma_t, required)

    def to_text(self) -> str:
        title_a = (
            f"Figure 5(a): detection rate vs sigma_T (sample size {self.config.sample_size})"
            + seed_suffix(self.n_seeds)
        )
        headers_a = ["feature", "sigma_T (s)", "r", "empirical", "theorem"]
        rows_a = self.rows_panel_a()
        if self.empirical_ci is not None:
            headers_a, rows_a = with_ci_column(
                headers_a,
                rows_a,
                4,
                self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        sections = [
            (title_a, format_table(headers_a, rows_a)),
            (
                f"Figure 5(b): sample size for {self.config.target_detection_rate:.0%} detection",
                format_table(["feature", "sigma_T (s)", "required sample"], self.rows_panel_b()),
            ),
        ]
        return render_experiment_report("Figure 5 — VIT padding", sections)


class Fig5Experiment:
    """Runs the Figure 5 reproduction."""

    #: Registry name; also the prefix of every cell key this experiment emits.
    name = "fig5"

    def __init__(self, config: Optional[Fig5Config] = None) -> None:
        self.config = config if config is not None else Fig5Config()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Figure 5: VIT padding — detection rate vs the timer standard deviation "
            "sigma_T, and the sample size needed for 99% detection"
        )

    @staticmethod
    def point_key(sigma_t: float) -> str:
        """The grid-point key of one ``sigma_T`` value.

        Keyed by the exact value, not the policy display name — policy names
        round ``sigma_T`` to three significant digits, which would collide
        for fine-grained sweeps.
        """
        return f"fig5/sigma_t={sigma_t!r}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The ``sigma_T`` sweep: one explicit grid point per timer spread.

        Conceptually a policy axis, but built from explicit points so each
        key carries the exact ``sigma_T`` value (see :meth:`point_key`).
        """
        from repro.runner import GridPoint, GridSpec

        config = self.config
        return GridSpec.from_points(
            "fig5",
            [
                GridPoint(key=self.point_key(sigma_t), scenario=config.scenario_for(sigma_t))
                for sigma_t in config.sigma_t_values
            ],
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
            features=tuple(config.features),
            entropy_bin_width=config.entropy_bin_width,
        )

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """One sweep-runner cell per (``sigma_T``, seed) grid point."""
        return self.grid(seeds).cells()

    def assemble(
        self,
        report,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> Fig5Result:
        """Build the figure result from a sweep report containing this grid's cells."""
        from repro.runner import experiment_view

        config = self.config
        n = config.sample_size
        view = experiment_view(report, self.cells(seeds), confidence=confidence)
        ratios = {
            sigma_t: config.scenario_for(sigma_t).variance_ratio()
            for sigma_t in config.sigma_t_values
        }
        empirical, empirical_ci = view.table(
            {sigma_t: (self.point_key(sigma_t), n) for sigma_t in config.sigma_t_values},
            config.features,
        )
        # Extension features (mad, iqr) have no closed form in the paper: NaN.
        theoretical = detection_rate_table(
            {sigma_t: (r, n) for sigma_t, r in ratios.items()}, config.features
        )

        required: Dict[str, Dict[float, float]] = {}
        for feature_name in ("variance", "entropy"):
            sizes = sample_size_vs_sigma_t(
                config.sigma_t_curve,
                target_detection_rate=config.target_detection_rate,
                feature=feature_name,
                disturbance=config.scenario.disturbance,
                low_rate_pps=config.scenario.low_rate_pps,
                high_rate_pps=config.scenario.high_rate_pps,
                net_variance=config.scenario.net_piat_variance(),
            )
            required[feature_name] = dict(zip(config.sigma_t_curve, sizes.tolist()))

        return Fig5Result(
            config=config,
            empirical_detection_rate=empirical,
            theoretical_detection_rate=theoretical,
            variance_ratios=ratios,
            required_sample_for_target=required,
            empirical_ci=empirical_ci,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


__all__ = ["Fig5Config", "Fig5Experiment", "Fig5Result"]
