"""First-class scenario grids and multi-seed aggregation.

This module is the declarative layer above :class:`~repro.runner.cells.SweepCell`:

* :class:`GridSpec` — a grid *specification*.  Built either from the
  canonical axis product (``policy × rate-pair × hops × utilization``, via
  :meth:`GridSpec.product`) or from explicit figure-specific points
  (:meth:`GridSpec.from_points`), then fanned out over one or more master
  seeds.  :meth:`GridSpec.cells` expands the spec into the flat cell list the
  :class:`~repro.runner.runner.SweepRunner` schedules.
* the **aggregation layer** — :func:`aggregate_cells` groups a sweep's
  results by *everything but the seed* and reduces each grid point's
  per-seed values to a mean with a percentile-bootstrap confidence interval
  (:func:`repro.stats.bootstrap.bootstrap_ci`).  The paper reports one
  collected run per grid point; its analytical claims are about
  distributions of detection rates, and a confidence band needs repeated
  trials.

Seeding convention: with a single seed, cell keys are the bare point keys
(``fig6/utilization=0.2``) — byte-identical to the historical one-seed-per-
cell layout, so existing stores stay warm and single-seed reports do not
change.  With several seeds, each cell key carries an ``@seed=N`` suffix and
:func:`split_seed_key` recovers the grid point it belongs to.

Bootstrap determinism: the resampling generator is derived from the grid
point's key and the confidence level, never from global state, so aggregated
reports are reproducible and cache-friendly.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig
from repro.padding.policies import PaddingPolicy
from repro.runner.capture import CaptureSpec
from repro.sim.random import seeded_rng
from repro.runner.cells import DEFAULT_FEATURES, CellResult, SweepCell
from repro.stats.bootstrap import bootstrap_ci

#: Separator between a grid-point key and its seed tag in multi-seed sweeps.
SEED_TAG = "@seed="


def seed_range(base_seed: int, count: int) -> Tuple[int, ...]:
    """``count`` consecutive master seeds starting at ``base_seed``."""
    if count < 1:
        raise ConfigurationError(f"seed count {count!r} must be >= 1")
    return tuple(base_seed + i for i in range(count))


def split_seed_key(key: str) -> Tuple[str, Optional[int]]:
    """Split ``"fig6/utilization=0.2@seed=7"`` into its point key and seed."""
    base, tag, seed = key.partition(SEED_TAG)
    if not tag:
        return key, None
    try:
        return base, int(seed)
    except ValueError:
        raise ConfigurationError(f"cell key {key!r} has a malformed seed tag") from None


@dataclass(frozen=True)
class GridPoint:
    """One seed-free point of a grid: a scenario plus its display key.

    ``shared_capture`` marks the point as a two-level hybrid cell: its
    gateway capture is factored into a cacheable
    :class:`~repro.runner.capture.CaptureSpec` shared with every other point
    that has the same gateway configuration and seed offsets.

    ``rate_classes`` marks the point as a Section 6 multi-rate cell
    (analytic grids only); it is forwarded verbatim to the cell, whose
    validation enforces the mode and rate constraints.
    """

    key: str
    scenario: ScenarioConfig
    seed_offsets: Tuple[str, str] = ("train", "test")
    shared_capture: bool = False
    capture_key: Optional[str] = None
    noise_offsets: Optional[Tuple[str, str]] = None
    rate_classes: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key:
            raise ConfigurationError(f"grid point key={self.key!r} must be a non-empty string")
        if SEED_TAG in self.key:
            raise ConfigurationError(
                f"grid point key {self.key!r} must not contain the seed tag {SEED_TAG!r}"
            )
        object.__setattr__(self, "seed_offsets", tuple(str(o) for o in self.seed_offsets))
        if self.noise_offsets is not None:
            object.__setattr__(
                self, "noise_offsets", tuple(str(o) for o in self.noise_offsets)
            )
        if self.rate_classes is not None:
            object.__setattr__(
                self, "rate_classes", tuple(float(r) for r in self.rate_classes)
            )


def _format_axis_value(value: Any) -> str:
    if isinstance(value, PaddingPolicy):
        return value.name
    if isinstance(value, tuple):
        return "x".join(f"{v:g}" for v in value)
    return repr(value)


@dataclass(frozen=True)
class GridSpec:
    """A declarative sweep grid: points × seeds → :class:`SweepCell` list.

    Attributes
    ----------
    prefix:
        Key prefix shared by every cell, e.g. the figure name.
    points:
        The seed-free grid points (see :meth:`product` and
        :meth:`from_points`).
    sample_sizes, trials, mode, features, entropy_bin_width,
    collect_piat_stats, kde_bandwidth:
        Forwarded to every cell (see :class:`~repro.runner.cells.SweepCell`).
    seeds:
        Master seeds the grid is fanned out over.  One seed keeps the
        historical bare keys; several append ``@seed=N``.
    """

    prefix: str
    points: Tuple[GridPoint, ...]
    sample_sizes: Tuple[int, ...]
    trials: int
    mode: CollectionMode = CollectionMode.SIMULATION
    seeds: Tuple[int, ...] = (2003,)
    features: Tuple[str, ...] = DEFAULT_FEATURES
    entropy_bin_width: Optional[float] = None
    collect_piat_stats: bool = False
    kde_bandwidth: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "features", tuple(str(f) for f in self.features))
        object.__setattr__(self, "mode", CollectionMode(self.mode))
        if not self.points:
            raise ConfigurationError("a grid needs at least one point")
        if not self.seeds:
            raise ConfigurationError("a grid needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"duplicate seeds in {self.seeds!r}")
        keys = [point.key for point in self.points]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("duplicate grid point keys")

    # ------------------------------------------------------------ constructors
    @classmethod
    def product(
        cls,
        prefix: str,
        scenario: ScenarioConfig,
        *,
        policies: Optional[Sequence[PaddingPolicy]] = None,
        rate_pairs: Optional[Sequence[Tuple[float, float]]] = None,
        hops: Optional[Sequence[int]] = None,
        utilizations: Optional[Sequence[float]] = None,
        seeds: Sequence[int] = (2003,),
        seed_offsets: Tuple[str, str] = ("train", "test"),
        shared_capture: bool = False,
        **cell_options: Any,
    ) -> "GridSpec":
        """The canonical axis product: policy × rate-pair × hops × utilization.

        Every axis is optional; an omitted axis keeps the base scenario's
        value and contributes no key segment.  Axis values are applied with
        :func:`dataclasses.replace`, so invalid combinations (e.g. cross
        traffic with zero hops) fail loudly at grid-construction time with
        the scenario's own validation message.
        """
        axes: List[Tuple[str, List[Any]]] = []
        if policies is not None:
            axes.append(("policy", list(policies)))
        if rate_pairs is not None:
            axes.append(("rates", [tuple(pair) for pair in rate_pairs]))
        if hops is not None:
            axes.append(("hops", [int(h) for h in hops]))
        if utilizations is not None:
            axes.append(("utilization", [float(u) for u in utilizations]))
        for name, values in axes:
            if not values:
                raise ConfigurationError(f"grid axis {name!r} must be non-empty")

        points: List[GridPoint] = []
        for combo in itertools.product(*(values for _, values in axes)):
            overrides: Dict[str, Any] = {}
            segments: List[str] = []
            for (name, _), value in zip(axes, combo):
                segments.append(f"{name}={_format_axis_value(value)}")
                if name == "policy":
                    overrides["policy"] = value
                elif name == "rates":
                    overrides["low_rate_pps"], overrides["high_rate_pps"] = value
                elif name == "hops":
                    overrides["n_hops"] = value
                else:
                    overrides["cross_utilization"] = value
            key = "/".join([prefix] + segments) if segments else prefix
            # Points sharing one gateway capture must still draw independent
            # network noise: salt the noise streams with the point key.
            noise_offsets = (
                tuple(f"{offset}@{key}" for offset in seed_offsets)
                if shared_capture and segments
                else None
            )
            points.append(
                GridPoint(
                    key=key,
                    scenario=replace(scenario, **overrides) if overrides else scenario,
                    seed_offsets=seed_offsets,
                    shared_capture=shared_capture,
                    noise_offsets=noise_offsets,
                )
            )
        return cls(prefix=prefix, points=tuple(points), seeds=tuple(seeds), **cell_options)

    @classmethod
    def from_points(
        cls,
        prefix: str,
        points: Iterable[GridPoint],
        *,
        seeds: Sequence[int] = (2003,),
        **cell_options: Any,
    ) -> "GridSpec":
        """A grid over explicit, figure-specific points (e.g. fig8's hours)."""
        return cls(prefix=prefix, points=tuple(points), seeds=tuple(seeds), **cell_options)

    # ------------------------------------------------------------- expansion
    def cell_key(self, point_key: str, seed: int) -> str:
        """The cell key of one (point, seed); bare when the grid is single-seed."""
        if len(self.seeds) == 1:
            return point_key
        return f"{point_key}{SEED_TAG}{seed}"

    def point_keys(self) -> List[str]:
        """The seed-free grid point keys, in grid order."""
        return [point.key for point in self.points]

    def cells(self) -> List[SweepCell]:
        """Expand the spec into schedulable cells (seed-major, point order)."""
        cells: List[SweepCell] = []
        hybrid = self.mode is CollectionMode.HYBRID
        for seed in self.seeds:
            for point in self.points:
                capture = None
                if point.shared_capture and hybrid:
                    capture = CaptureSpec(
                        key=point.capture_key or f"{point.key}/capture",
                        scenario=point.scenario,
                        n_intervals=max(self.sample_sizes) * self.trials + 1,
                        seed=seed,
                        seed_offsets=point.seed_offsets,
                    )
                cells.append(
                    SweepCell(
                        key=self.cell_key(point.key, seed),
                        scenario=point.scenario,
                        sample_sizes=self.sample_sizes,
                        trials=self.trials,
                        mode=self.mode,
                        seed=seed,
                        features=self.features,
                        entropy_bin_width=self.entropy_bin_width,
                        seed_offsets=point.seed_offsets,
                        collect_piat_stats=self.collect_piat_stats,
                        capture=capture,
                        noise_offsets=point.noise_offsets if hybrid else None,
                        kde_bandwidth=self.kde_bandwidth,
                        rate_classes=point.rate_classes,
                    )
                )
        return cells


# ----------------------------------------------------------------- aggregation
@dataclass
class AggregatedCellResult:
    """One grid point reduced across seeds.

    Duck-types the fields of :class:`~repro.runner.cells.CellResult` that the
    experiments read (``empirical_detection_rate``,
    ``measured_variance_ratio``, ``measured_means``, ``piat_stats``) so a
    figure's ``assemble`` works identically on raw and aggregated sweeps —
    the point estimates are simply per-seed means.  The ``*_ci`` fields hold
    percentile-bootstrap intervals and are ``None`` unless a confidence level
    was requested and at least two seeds contributed.
    """

    key: str
    seeds: Tuple[int, ...]
    empirical_detection_rate: Dict[str, Dict[int, float]]
    measured_variance_ratio: float
    measured_means: Dict[str, float] = field(default_factory=dict)
    piat_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    detection_rate_ci: Optional[Dict[str, Dict[int, Tuple[float, float]]]] = None
    variance_ratio_ci: Optional[Tuple[float, float]] = None

    @property
    def n_seeds(self) -> int:
        """Number of independent seeds behind every point estimate."""
        return len(self.seeds)


@dataclass
class ExperimentView:
    """One experiment's grid points, read back from a sweep report.

    ``results`` maps each seed-free point key to its result: the raw
    :class:`~repro.runner.cells.CellResult` of a single-seed run (whose cell
    keys are the bare point keys) or the :class:`AggregatedCellResult` of a
    multi-seed one.  ``confidence`` is set exactly when the results carry
    bootstrap bands: two or more seeds and a requested confidence level.
    """

    results: Mapping[str, Any]
    n_seeds: int
    confidence: Optional[float]

    def __getitem__(self, key: str) -> Any:
        return self.results[key]

    def table(
        self, axis: Mapping[Any, Tuple[str, int]], features: Sequence[str]
    ) -> Tuple[Dict[str, Dict[Any, float]], Optional[Dict[str, Dict[Any, Tuple[float, float]]]]]:
        """Detection rates per feature along one axis, and their bands.

        ``axis`` maps each axis value (a utilization, an hour, a sample
        size, ...) to the ``(point key, sample size)`` it reads.  Returns
        ``(rates, bands)``, each keyed ``[feature][axis value]``; ``bands``
        is ``None`` unless the view carries bootstrap intervals.
        """
        rates = {
            feature: {
                value: self.results[key].empirical_detection_rate[feature][n]
                for value, (key, n) in axis.items()
            }
            for feature in features
        }
        if self.confidence is None:
            return rates, None
        bands = {
            feature: {
                value: self.results[key].detection_rate_ci[feature][n]
                for value, (key, n) in axis.items()
            }
            for feature in features
        }
        return rates, bands


def experiment_view(
    report: Mapping[str, CellResult],
    cells: Sequence[SweepCell],
    confidence: Optional[float] = None,
) -> ExperimentView:
    """The view an experiment's ``assemble`` reads its grid points from.

    ``cells`` is the experiment's expanded cell list.  A single-seed run
    reads the raw sweep report (bare keys, historical byte-identical
    results); a multi-seed run reads the per-point reduction of
    :func:`aggregate_cells`.
    """
    if len({cell.seed for cell in cells}) > 1:
        return aggregate_cells(cells, report, confidence=confidence)
    return ExperimentView(report, n_seeds=1, confidence=None)


def point_bootstrap_rng(point_key: str, confidence: float) -> np.random.Generator:
    """A resampling generator derived from the grid point, not global state.

    Public because every consumer that bootstraps per-point intervals — the
    aggregation layer here and :meth:`repro.store.query.StoreQuery.ci_band`
    — must derive the generator identically, or the same store would serve
    different confidence bands through different code paths.
    """
    digest = hashlib.sha256(f"{point_key}|{confidence}".encode("utf-8")).hexdigest()
    return seeded_rng(int(digest[:16], 16))


def mean_and_ci(
    values: Sequence[float],
    point_key: str,
    confidence: Optional[float],
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Per-point mean plus the deterministic bootstrap interval (or ``None``).

    The interval is ``None`` when no confidence level was requested or fewer
    than two values contributed.  Resampling uses
    :func:`point_bootstrap_rng`, so equal inputs yield byte-equal bands in
    every consumer.
    """
    array = np.asarray(list(values), dtype=float)
    mean = float(np.mean(array))
    if confidence is None or array.size < 2:
        return mean, None
    result = bootstrap_ci(
        array,
        confidence=confidence,
        rng=point_bootstrap_rng(point_key, confidence),
    )
    return mean, (result.lower, result.upper)


def _seedless_config(cell: SweepCell) -> Dict[str, Any]:
    """The cell configuration with every seed-derived field removed."""
    config = cell.config_dict()
    config.pop("seed", None)
    if "capture" in config:
        config["capture"] = {
            name: value for name, value in config["capture"].items() if name != "seed"
        }
    return config


def aggregate_cells(
    cells: Sequence[SweepCell],
    report: Mapping[str, CellResult],
    confidence: Optional[float] = None,
) -> ExperimentView:
    """Group cell results by everything-but-seed and reduce each group.

    ``cells`` is the expanded grid the sweep ran; ``report`` maps cell keys
    to results (a :class:`~repro.runner.runner.SweepReport` works directly).
    Cells whose keys share a point (identical up to the ``@seed=`` tag) must
    have configurations identical up to the seed — anything else is a grid
    construction bug and raises loudly rather than averaging apples with
    oranges.
    """
    if confidence is not None and not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence={confidence!r} must lie in (0, 1)")
    groups: Dict[str, List[SweepCell]] = {}
    for cell in cells:
        point_key, _ = split_seed_key(cell.key)
        groups.setdefault(point_key, []).append(cell)

    results: Dict[str, AggregatedCellResult] = {}
    for point_key, members in groups.items():
        reference = _seedless_config(members[0])
        for member in members[1:]:
            if _seedless_config(member) != reference:
                raise ConfigurationError(
                    f"grid point {point_key!r}: cells {members[0].key!r} and "
                    f"{member.key!r} differ in more than the seed; refusing to aggregate"
                )
        seeds = tuple(member.seed for member in members)
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(
                f"grid point {point_key!r}: duplicate seed in group {seeds!r}"
            )
        member_results = [report[member.key] for member in members]

        rates: Dict[str, Dict[int, float]] = {}
        rate_cis: Dict[str, Dict[int, Tuple[float, float]]] = {}
        for feature in member_results[0].empirical_detection_rate:
            rates[feature] = {}
            rate_cis[feature] = {}
            for n in member_results[0].empirical_detection_rate[feature]:
                values = [r.empirical_detection_rate[feature][n] for r in member_results]
                mean, ci = mean_and_ci(values, f"{point_key}/{feature}/{n}", confidence)
                rates[feature][n] = mean
                if ci is not None:
                    rate_cis[feature][n] = ci

        ratio_mean, ratio_ci = mean_and_ci(
            [r.measured_variance_ratio for r in member_results], f"{point_key}/r", confidence
        )
        means: Dict[str, float] = {}
        for label in member_results[0].measured_means:
            means[label] = float(
                np.mean([r.measured_means[label] for r in member_results])
            )
        piat: Dict[str, Dict[str, float]] = {}
        for label in member_results[0].piat_stats:
            stats = {}
            for name in member_results[0].piat_stats[label]:
                stats[name] = float(
                    np.mean([float(r.piat_stats[label][name]) for r in member_results])
                )
            piat[label] = stats

        has_ci = confidence is not None and len(members) >= 2
        results[point_key] = AggregatedCellResult(
            key=point_key,
            seeds=seeds,
            empirical_detection_rate=rates,
            measured_variance_ratio=ratio_mean,
            measured_means=means,
            piat_stats=piat,
            detection_rate_ci=rate_cis if has_ci else None,
            variance_ratio_ci=ratio_ci if has_ci else None,
        )
    n_seeds = len({cell.seed for cell in cells})
    return ExperimentView(
        results, n_seeds=n_seeds, confidence=confidence if n_seeds >= 2 else None
    )


__all__ = [
    "SEED_TAG",
    "AggregatedCellResult",
    "ExperimentView",
    "GridPoint",
    "GridSpec",
    "aggregate_cells",
    "experiment_view",
    "mean_and_ci",
    "point_bootstrap_rng",
    "seed_range",
    "split_seed_key",
]
