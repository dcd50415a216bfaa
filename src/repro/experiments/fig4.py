"""Figure 4: CIT padding without cross traffic.

Two sub-figures are reproduced:

* **Figure 4(a)** — the conditional PIAT distributions of the padded stream
  under the low (10 pps) and high (40 pps) payload rates: same mean, high
  rate slightly wider, both approximately normal.
* **Figure 4(b)** — detection rate versus sample size for the three feature
  statistics, empirical (KDE Bayes classifier on captured samples) against
  the closed-form predictions of Theorems 1–3 and the exact Bayes rates.

The adversary taps right at the sender gateway's output (zero cross traffic),
the best case for the attacker and hence the worst case for the defender.

The experiment's grid is a single :class:`~repro.runner.grid.GridSpec` point;
running it over several master seeds (``seeds=...``) reports each detection
rate as the mean across seeds with an optional bootstrap confidence interval,
which is how the repeated-capture uncertainty the paper's single collected
run cannot express is quantified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.exact import detection_rate_mean_exact, detection_rate_variance_exact
from repro.core.theorems import detection_rate_table
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_interval,
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import ExperimentView, GridSpec, SweepCell


@dataclass(frozen=True)
class Fig4Config:
    """Configuration for the Figure 4 reproduction.

    Attributes
    ----------
    sample_sizes:
        Sample sizes (x-axis of Figure 4(b)).
    trials:
        Number of training samples *and* number of test samples per class at
        each sample size.
    mode:
        Capture collection mode.
    seed:
        Master seed for reproducibility.
    scenario:
        Padded-link scenario; the default is the paper's setup (CIT 10 ms,
        tap at the gateway output, no cross traffic).
    entropy_bin_width:
        Histogram bin width used by the sample-entropy feature.
    """

    sample_sizes: Tuple[int, ...] = (10, 50, 100, 200, 500, 1000, 2000)
    trials: int = 30
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 2003
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    entropy_bin_width: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.sample_sizes:
            raise ConfigurationError("sample_sizes must be non-empty")
        if any(n < 2 for n in self.sample_sizes):
            raise ConfigurationError("every sample size must be >= 2")
        if self.trials < 2:
            raise ConfigurationError("trials must be >= 2")

    @property
    def intervals_per_class(self) -> int:
        """Capture length needed to form ``trials`` samples of the largest size."""
        return max(self.sample_sizes) * self.trials


@dataclass
class Fig4Result:
    """Everything Figure 4 plots, in numeric form.

    ``empirical_ci`` and ``r_measured_ci`` hold per-point bootstrap intervals
    when the experiment ran over several seeds with a confidence level;
    otherwise they are ``None`` and the report renders exactly as the
    single-seed layout always has.
    """

    config: Fig4Config
    r_model: float
    r_measured: float
    piat_stats: Dict[str, Dict[str, float]]
    empirical_detection_rate: Dict[str, Dict[int, float]]
    theoretical_detection_rate: Dict[str, Dict[int, float]]
    exact_detection_rate: Dict[str, Dict[int, float]]
    empirical_ci: Optional[Dict[str, Dict[int, Tuple[float, float]]]] = None
    r_measured_ci: Optional[Tuple[float, float]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """Figure 4(b) as rows: (feature, sample size, empirical, theory, exact)."""
        for feature, by_n in sorted(self.empirical_detection_rate.items()):
            for n, empirical in sorted(by_n.items()):
                yield (
                    feature,
                    n,
                    empirical,
                    self.theoretical_detection_rate[feature][n],
                    self.exact_detection_rate[feature][n],
                )

    def to_text(self) -> str:
        """Full text report (both sub-figures)."""
        piat_rows = [
            (
                label,
                stats["mean"],
                stats["std"],
                stats["qq_rms_deviation"],
                stats["looks_normal"],
            )
            for label, stats in sorted(self.piat_stats.items())
        ]
        r_line = f"\n\nvariance ratio r: model={self.r_model:.4f}, measured={self.r_measured:.4f}"
        if self.r_measured_ci is not None:
            r_line += f" ci{self.confidence:.0%}={format_interval(self.r_measured_ci)}"
        headers = ["feature", "sample size", "empirical", "theorem", "exact Bayes"]
        rows_4b = self.rows()
        if self.empirical_ci is not None:
            headers, rows_4b = with_ci_column(
                headers,
                rows_4b,
                3,
                self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        # Aggregated runs average the per-seed booleans into a fraction; the
        # column header says so instead of printing a float under "bell-shaped".
        bell_header = (
            "bell-shaped (fraction of seeds)" if self.n_seeds > 1 else "bell-shaped"
        )
        sections = [
            (
                "Figure 4(a): padded-traffic PIAT statistics per payload rate"
                + seed_suffix(self.n_seeds),
                format_table(
                    ["payload rate", "mean PIAT (s)", "std PIAT (s)", "QQ deviation", bell_header],
                    piat_rows,
                )
                + r_line,
            ),
            (
                "Figure 4(b): detection rate vs sample size" + seed_suffix(self.n_seeds),
                format_table(headers, rows_4b),
            ),
        ]
        return render_experiment_report("Figure 4 — CIT padding, no cross traffic", sections)


class Fig4Experiment:
    """Runs the Figure 4 reproduction."""

    #: Registry name; also the prefix of every cell key this experiment emits.
    name = "fig4"

    config_cls = Fig4Config

    #: Config keyword arguments per registry preset; the registry adds the seed.
    presets = {
        "paper": {},
        "fast": dict(trials=20, mode=CollectionMode.ANALYTIC),
        "quick": dict(sample_sizes=(50, 200, 1000), trials=10, mode=CollectionMode.ANALYTIC),
        "smoke": dict(sample_sizes=(50, 200), trials=6, mode=CollectionMode.ANALYTIC),
    }

    def __init__(self, config: Optional[Fig4Config] = None) -> None:
        self.config = config if config is not None else Fig4Config()

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return (
            "Figure 4: CIT padding without cross traffic — PIAT statistics per "
            "payload rate and detection rate vs sample size for the three features"
        )

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The experiment's grid: a single point, fanned out over the seeds.

        Figure 4 sweeps the adversary's sample size over one fixed capture,
        so the grid holds one point per seed; it parallelises against the
        cells of *other* experiments when the CLI's ``sweep`` subcommand runs
        every selected figure's cells through one combined ``runner.run()``.
        """
        from repro.runner import GridSpec

        config = self.config
        return GridSpec.product(
            "fig4",
            config.scenario,
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=config.sample_sizes,
            trials=config.trials,
            mode=config.mode,
            entropy_bin_width=config.entropy_bin_width,
            collect_piat_stats=True,
        )

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """The experiment's grid as sweep-runner cells."""
        return self.grid(seeds).cells()

    def assemble(self, view: "ExperimentView") -> Fig4Result:
        """Build the figure result from the view of this grid's cells."""
        from repro.runner import DEFAULT_FEATURES

        config = self.config
        cell = view["fig4"]
        r_model = config.scenario.variance_ratio()
        empirical, empirical_ci = view.table(
            {n: ("fig4", n) for n in config.sample_sizes}, DEFAULT_FEATURES
        )
        exact = {
            name: {
                n: (
                    detection_rate_mean_exact(r_model)
                    if name == "mean"
                    else detection_rate_variance_exact(r_model, n)
                )
                for n in config.sample_sizes
            }
            for name in DEFAULT_FEATURES
        }
        return Fig4Result(
            config=config,
            r_model=r_model,
            r_measured=cell.measured_variance_ratio,
            piat_stats=cell.piat_stats,
            empirical_detection_rate=empirical,
            theoretical_detection_rate=detection_rate_table(
                {n: (r_model, n) for n in config.sample_sizes}, DEFAULT_FEATURES
            ),
            exact_detection_rate=exact,
            empirical_ci=empirical_ci,
            r_measured_ci=cell.variance_ratio_ci if view.confidence is not None else None,
            n_seeds=view.n_seeds,
            confidence=view.confidence,
        )


__all__ = ["Fig4Config", "Fig4Experiment", "Fig4Result"]
