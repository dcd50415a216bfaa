"""Sweep cells: the schedulable unit of the parallel sweep runner.

A :class:`SweepCell` is one independent point of a figure's scenario grid —
one padded-link scenario evaluated at one master seed.  Executing a cell
(:func:`run_cell`) collects a training and a test capture, mounts the attack
with every requested feature statistic at every requested sample size, and
returns the *empirical* quantities as a :class:`CellResult`.  Everything that
has a closed form (Theorems 1-3, the exact Bayes rates, the variance-ratio
model) is recomputed cheaply by the experiment in the parent process, so a
cell result stays small enough to persist as one JSON line.

Cells are content-addressed: :meth:`SweepCell.fingerprint` hashes every field
that influences the numeric result (the scenario, sample sizes, trials, mode,
seed, features, ...) but *not* the display ``key``, so relabelling a grid
point does not invalidate its cache entry.  Fields added after the first
release (``capture``, ``kde_bandwidth``) enter the hash only when set, so
stores written before they existed stay warm.

A cell may reference a shared gateway capture
(:class:`~repro.runner.capture.CaptureSpec`) — the *two-level* form used by
hybrid grids that evaluate one gateway under many network conditions.  Such a
cell runs no gateway capture of its own: it applies its scenario's analytic
network noise to the parent capture instead; the runner resolves (and
caches) the parent before scheduling the children.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.adversary.bayes import KDEBayesClassifier
from repro.adversary.detection import (
    empirical_detection_rate,
    evaluate_attack,
    training_features,
)
from repro.adversary.features import get_feature
from repro.adversary.multiclass import evaluate_multiclass_attack
from repro.exceptions import AnalysisError, ConfigurationError
from repro.experiments.base import (
    CollectionMode,
    ScenarioConfig,
    collect_labelled_intervals,
    collect_multiclass_intervals,
)
from repro.runner.capture import (
    CaptureResult,
    CaptureSpec,
    gateway_config_dict,
    hybrid_captures_from_gateway,
)
from repro.runner.fingerprint import fingerprint_payload
from repro.stats.kde import silverman_bandwidth
from repro.stats.normality import normality_report

#: Bumped whenever the cell execution or result layout changes in a way that
#: invalidates previously stored results.
SCHEMA_VERSION = 1

#: The paper's three feature statistics, in report order.
DEFAULT_FEATURES: Tuple[str, ...] = ("mean", "variance", "entropy")

#: KDE bandwidth rules accepted by :attr:`SweepCell.kde_bandwidth`.
KDE_BANDWIDTH_RULES: Tuple[str, ...] = ("silverman", "scott")


@dataclass(frozen=True)
class SweepCell:
    """One (scenario, seed) grid point, ready to be scheduled.

    Attributes
    ----------
    key:
        Display label, e.g. ``"fig6/utilization=0.2"``.  Unique within one
        sweep; deliberately excluded from the cache fingerprint.
    scenario:
        The padded-link scenario to capture and attack.
    sample_sizes:
        Adversary sample sizes to evaluate (each >= 2).
    trials:
        Training and test samples per class per sample size.
    mode:
        Capture collection mode.
    seed:
        Master random seed for the cell's captures.
    features:
        Feature-statistic names to evaluate (see
        :func:`repro.adversary.features.get_feature`).
    entropy_bin_width:
        Histogram bin width forwarded to the sample-entropy feature.
    seed_offsets:
        Stream-name tags for the training and test captures; they must
        differ or the adversary would train on its own test data.
    collect_piat_stats:
        Also compute per-class normality statistics of the test capture
        (used by Figure 4(a)).
    capture:
        Optional shared gateway capture this cell is a child of (hybrid mode
        only).  The runner resolves the capture first and injects its result.
    noise_offsets:
        Optional per-cell tags for the hybrid network-noise streams, when
        they must be salted differently from ``seed_offsets`` — grid points
        that share one gateway capture (same ``seed_offsets``) use a
        distinct noise salt per point so their noise draws stay
        statistically independent.  Defaults to ``seed_offsets``.
    kde_bandwidth:
        Optional override for the adversary's KDE bandwidth: a rule name
        (``"silverman"``/``"scott"``) or a float multiplier applied to the
        Silverman bandwidth of the pooled training features.  ``None`` keeps
        the default (per-class Silverman, the paper's estimator).
    rate_classes:
        Optional payload-rate mix for the Section 6 multi-rate extension.
        When set the cell evaluates an m-ary attack over these rates
        (analytic mode only) instead of the binary low/high attack, and the
        result additionally carries the full confusion matrices.  Must hold
        at least three distinct rates whose extremes equal the scenario's
        ``low_rate_pps``/``high_rate_pps``.  Like ``capture`` and
        ``kde_bandwidth`` this field enters the fingerprint only when set,
        so binary cells — and every record in existing stores — are
        unaffected by its existence.
    """

    key: str
    scenario: ScenarioConfig
    sample_sizes: Tuple[int, ...]
    trials: int
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 2003
    features: Tuple[str, ...] = DEFAULT_FEATURES
    entropy_bin_width: Optional[float] = None
    seed_offsets: Tuple[str, str] = ("train", "test")
    collect_piat_stats: bool = False
    capture: Optional[CaptureSpec] = None
    noise_offsets: Optional[Tuple[str, str]] = None
    kde_bandwidth: Optional[Union[str, float]] = None
    rate_classes: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key:
            raise ConfigurationError(f"key={self.key!r} must be a non-empty string")
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "features", tuple(str(f) for f in self.features))
        object.__setattr__(self, "seed_offsets", tuple(str(o) for o in self.seed_offsets))
        try:
            object.__setattr__(self, "mode", CollectionMode(self.mode))
        except ValueError:
            valid = ", ".join(repr(m.value) for m in CollectionMode)
            raise ConfigurationError(
                f"mode={self.mode!r} is not a collection mode; choose one of {valid}"
            ) from None
        if not self.sample_sizes:
            raise ConfigurationError(f"sample_sizes={self.sample_sizes!r} must be non-empty")
        if any(n < 2 for n in self.sample_sizes):
            raise ConfigurationError(
                f"sample_sizes={self.sample_sizes!r} must contain only sizes >= 2"
            )
        if self.trials < 2:
            raise ConfigurationError(f"trials={self.trials!r} must be >= 2")
        if not self.features:
            raise ConfigurationError(f"features={self.features!r} must be non-empty")
        if len(self.seed_offsets) != 2 or self.seed_offsets[0] == self.seed_offsets[1]:
            raise ConfigurationError(
                f"seed_offsets={self.seed_offsets!r} must be two distinct tags"
            )
        if self.noise_offsets is not None:
            object.__setattr__(
                self, "noise_offsets", tuple(str(o) for o in self.noise_offsets)
            )
            if self.mode is not CollectionMode.HYBRID:
                raise ConfigurationError(
                    f"noise_offsets={self.noise_offsets!r} only apply to hybrid mode "
                    f"(the other modes have no separate network-noise stage)"
                )
            if len(self.noise_offsets) != 2 or self.noise_offsets[0] == self.noise_offsets[1]:
                raise ConfigurationError(
                    f"noise_offsets={self.noise_offsets!r} must be two distinct tags"
                )
        if isinstance(self.kde_bandwidth, str):
            if self.kde_bandwidth not in KDE_BANDWIDTH_RULES:
                raise ConfigurationError(
                    f"kde_bandwidth={self.kde_bandwidth!r} is not a bandwidth rule; "
                    f"choose one of {KDE_BANDWIDTH_RULES} or a positive float multiplier"
                )
        elif self.kde_bandwidth is not None and not self.kde_bandwidth > 0.0:
            raise ConfigurationError(
                f"kde_bandwidth={self.kde_bandwidth!r} must be a positive multiplier"
            )
        if self.rate_classes is not None:
            object.__setattr__(
                self, "rate_classes", tuple(float(r) for r in self.rate_classes)
            )
            self._validate_rate_classes(self.rate_classes)
        if self.capture is not None:
            self._validate_capture(self.capture)

    def _validate_rate_classes(self, rates: Tuple[float, ...]) -> None:
        """A multi-rate cell must be analytic and consistent with its scenario."""
        if self.mode is not CollectionMode.ANALYTIC:
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes require analytic mode "
                f"(the multi-rate extension has no simulated capture path), "
                f"got {self.mode.value!r}"
            )
        if self.capture is not None:
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes cannot be combined with a "
                f"shared gateway capture"
            )
        if self.kde_bandwidth is not None:
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes cannot be combined with a "
                f"kde_bandwidth override (the multiclass attack uses the "
                f"paper's per-class Silverman estimator)"
            )
        if len(rates) < 3:
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes={rates!r} must hold at least "
                f"three rates; use the binary low/high scenario for two"
            )
        if len(set(rates)) != len(rates):
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes={rates!r} contain duplicates"
            )
        if list(rates) != sorted(rates):
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes={rates!r} must be sorted "
                f"ascending (the order is fingerprinted)"
            )
        if any(rate <= 0.0 for rate in rates):
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes={rates!r} must be positive"
            )
        if rates[0] != self.scenario.low_rate_pps or rates[-1] != self.scenario.high_rate_pps:
            raise ConfigurationError(
                f"cell {self.key!r}: rate_classes extremes {rates[0]!r}/{rates[-1]!r} "
                f"must equal the scenario's low/high rates "
                f"{self.scenario.low_rate_pps!r}/{self.scenario.high_rate_pps!r}"
            )

    def _validate_capture(self, capture: CaptureSpec) -> None:
        """A child cell must be consistent with its parent capture."""
        if self.mode is not CollectionMode.HYBRID:
            raise ConfigurationError(
                f"cell {self.key!r}: a shared gateway capture requires hybrid mode, "
                f"got {self.mode.value!r}"
            )
        if capture.seed != self.seed:
            raise ConfigurationError(
                f"cell {self.key!r}: capture seed {capture.seed!r} != cell seed {self.seed!r}"
            )
        if capture.seed_offsets != self.seed_offsets:
            raise ConfigurationError(
                f"cell {self.key!r}: capture seed_offsets {capture.seed_offsets!r} != "
                f"cell seed_offsets {self.seed_offsets!r}"
            )
        if capture.n_intervals < self.intervals_per_class + 1:
            raise ConfigurationError(
                f"cell {self.key!r}: capture holds {capture.n_intervals} intervals per "
                f"class; the cell needs {self.intervals_per_class + 1}"
            )
        # ``GridSpec.cells`` hands a child and its capture the same scenario
        # object; only distinct objects need their gateway fields compared.
        if capture.scenario is not self.scenario and gateway_config_dict(
            capture.scenario
        ) != gateway_config_dict(self.scenario):
            raise ConfigurationError(
                f"cell {self.key!r}: the capture's gateway configuration differs from "
                f"the cell scenario's (policy/rates/disturbance/packet size/warmup)"
            )

    @property
    def intervals_per_class(self) -> int:
        """Capture length needed for ``trials`` samples of the largest size."""
        return max(self.sample_sizes) * self.trials

    def config_dict(self) -> Dict[str, Any]:
        """The result-affecting configuration as plain JSON-able data.

        Optional fields introduced after the first release are serialised
        only when set, so fingerprints of plain cells — and therefore every
        record in existing stores — are unchanged by their existence.  The
        top-level dict is new on every call; the nested ``scenario`` dict is
        the scenario's shared :attr:`~ScenarioConfig.fingerprint_dict` and
        must not be mutated.
        """
        config = {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario.fingerprint_dict,
            "sample_sizes": list(self.sample_sizes),
            "trials": self.trials,
            "mode": self.mode.value,
            "seed": self.seed,
            "features": list(self.features),
            "entropy_bin_width": self.entropy_bin_width,
            "seed_offsets": list(self.seed_offsets),
            "collect_piat_stats": self.collect_piat_stats,
        }
        if self.capture is not None:
            config["capture"] = self.capture.config_dict()
        if self.noise_offsets is not None:
            config["noise_offsets"] = list(self.noise_offsets)
        if self.kde_bandwidth is not None:
            config["kde_bandwidth"] = self.kde_bandwidth
        if self.rate_classes is not None:
            config["rate_classes"] = list(self.rate_classes)
        return config

    def fingerprint(self) -> str:
        """Content hash of :meth:`config_dict`; the cell's cache key.

        Hashed once per instance (every field is frozen) and kept in ``__dict__``.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = fingerprint_payload(self.config_dict())
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass
class CellResult:
    """The empirical measurements produced by one executed cell.

    ``elapsed_seconds`` is wall-clock bookkeeping for progress lines only;
    it is excluded from equality, report text and the stored record, so
    cached and freshly computed sweeps render byte-for-byte identically and
    two cold runs of one grid write identical shards.
    """

    key: str
    fingerprint: str
    empirical_detection_rate: Dict[str, Dict[int, float]]
    measured_variance_ratio: float
    measured_means: Dict[str, float] = field(default_factory=dict)
    piat_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    confusion: Dict[str, Dict[int, Dict[str, Dict[str, int]]]] = field(default_factory=dict)
    elapsed_seconds: float = field(default=0.0, compare=False)
    from_cache: bool = False

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-able payload for the results store (sample sizes become strings).

        ``confusion`` (multi-rate cells only) is serialised only when
        non-empty, so records of binary cells are byte-identical to those
        written before the field existed.  ``elapsed_seconds`` is not
        written; records from earlier releases still carry it, and
        :meth:`from_json_dict` reads it back.
        """
        payload = {
            "empirical_detection_rate": {
                feature: {str(n): rate for n, rate in by_n.items()}
                for feature, by_n in self.empirical_detection_rate.items()
            },
            "measured_variance_ratio": self.measured_variance_ratio,
            "measured_means": dict(self.measured_means),
            "piat_stats": {label: dict(stats) for label, stats in self.piat_stats.items()},
        }
        if self.confusion:
            payload["confusion"] = {
                feature: {
                    str(n): {true: dict(row) for true, row in matrix.items()}
                    for n, matrix in by_n.items()
                }
                for feature, by_n in self.confusion.items()
            }
        return payload

    @classmethod
    def from_json_dict(
        cls,
        key: str,
        fingerprint: str,
        payload: Dict[str, Any],
        from_cache: bool = True,
    ) -> "CellResult":
        """Rebuild a result from a store record (inverse of :meth:`to_json_dict`)."""
        return cls(
            key=key,
            fingerprint=fingerprint,
            empirical_detection_rate={
                feature: {int(n): float(rate) for n, rate in by_n.items()}
                for feature, by_n in payload["empirical_detection_rate"].items()
            },
            measured_variance_ratio=float(payload["measured_variance_ratio"]),
            measured_means={k: float(v) for k, v in payload.get("measured_means", {}).items()},
            piat_stats={
                label: dict(stats) for label, stats in payload.get("piat_stats", {}).items()
            },
            confusion={
                feature: {
                    int(n): {
                        true: {pred: int(count) for pred, count in row.items()}
                        for true, row in matrix.items()
                    }
                    for n, matrix in by_n.items()
                }
                for feature, by_n in payload.get("confusion", {}).items()
            },
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            from_cache=from_cache,
        )


def _measure_detection_rate(
    cell: SweepCell,
    train_intervals: Dict[str, np.ndarray],
    test_intervals: Dict[str, np.ndarray],
    feature,
    sample_size: int,
) -> float:
    """One (feature, sample size) point, honouring the cell's bandwidth override."""
    if cell.kde_bandwidth is None:
        result = evaluate_attack(
            train_intervals,
            test_intervals,
            feature,
            sample_size=sample_size,
            max_samples_per_class=cell.trials,
        )
        return float(result.detection_rate)
    features = training_features(
        train_intervals, feature, sample_size, max_samples_per_class=cell.trials
    )
    if isinstance(cell.kde_bandwidth, str):
        bandwidth: Union[str, float] = cell.kde_bandwidth
    else:
        # Numeric overrides are multiples of the Silverman bandwidth of the
        # pooled training features — a scale that survives feature rescaling.
        pooled = np.concatenate([features[label] for label in sorted(features)])
        bandwidth = float(cell.kde_bandwidth) * silverman_bandwidth(pooled)
    classifier = KDEBayesClassifier(bandwidth=bandwidth).fit(features)
    result = empirical_detection_rate(
        classifier, test_intervals, feature, sample_size, max_samples_per_class=cell.trials
    )
    return float(result.detection_rate)


def _collect_piat_stats(test_intervals: Dict[str, np.ndarray]) -> Dict[str, Dict[str, float]]:
    """Per-class normality statistics of a test capture (Figure 4(a))."""
    piat_stats: Dict[str, Dict[str, float]] = {}
    for label, intervals in test_intervals.items():
        report = normality_report(intervals)
        piat_stats[label] = {
            "mean": float(report.mean),
            "std": float(report.std),
            "qq_rms_deviation": float(report.qq_rms_deviation),
            "looks_normal": bool(report.looks_normal),
        }
    return piat_stats


def _run_multiclass_cell(cell: SweepCell, features: Dict[str, Any], start: float) -> CellResult:
    """The Section 6 multi-rate path: m-ary attack plus confusion matrices.

    The overall (trial-weighted) detection rate lands in
    ``empirical_detection_rate`` exactly like the binary path's, so every
    downstream consumer (aggregation, stores, reports) works unchanged; the
    full ``matrix[true][predicted]`` counts ride along in ``confusion``.
    The variance ratio is measured between the extreme rate classes, which
    by construction equal the scenario's low/high rates.
    """
    train_offset, test_offset = cell.seed_offsets
    assert cell.rate_classes is not None
    train = collect_multiclass_intervals(
        cell.scenario,
        cell.rate_classes,
        cell.intervals_per_class,
        seed=cell.seed,
        seed_offset=train_offset,
    )
    test = collect_multiclass_intervals(
        cell.scenario,
        cell.rate_classes,
        cell.intervals_per_class,
        seed=cell.seed,
        seed_offset=test_offset,
    )

    empirical: Dict[str, Dict[int, float]] = {name: {} for name in features}
    confusion: Dict[str, Dict[int, Dict[str, Dict[str, int]]]] = {name: {} for name in features}
    for name, feature in features.items():
        for n in cell.sample_sizes:
            result = evaluate_multiclass_attack(
                train.intervals,
                test.intervals,
                feature,
                sample_size=n,
                max_samples_per_class=cell.trials,
            )
            empirical[name][n] = float(result.detection_rate)
            confusion[name][n] = {
                true: {pred: int(count) for pred, count in row.items()}
                for true, row in result.confusion.items()
            }

    low_label = f"{cell.rate_classes[0]:g}"
    high_label = f"{cell.rate_classes[-1]:g}"
    low_var = float(np.var(test.intervals[low_label], ddof=1))
    high_var = float(np.var(test.intervals[high_label], ddof=1))
    if low_var <= 0.0:
        raise ConfigurationError(f"cell {cell.key!r}: lowest-rate capture has zero variance")

    return CellResult(
        key=cell.key,
        fingerprint=cell.fingerprint(),
        empirical_detection_rate=empirical,
        measured_variance_ratio=high_var / low_var,
        measured_means={k: float(v) for k, v in test.measured_means().items()},
        piat_stats=_collect_piat_stats(test.intervals) if cell.collect_piat_stats else {},
        confusion=confusion,
        elapsed_seconds=time.perf_counter() - start,
    )


def run_cell(cell: SweepCell, capture: Optional[CaptureResult] = None) -> CellResult:
    """Execute one cell: capture, attack, summarise.

    Pure function of the cell's fields — the same cell always produces the
    same :class:`CellResult` (up to ``elapsed_seconds``), which is what makes
    both the process-pool fan-out and the on-disk cache sound.  A two-level
    cell (``cell.capture`` set) additionally requires the parent capture's
    result; the runner resolves and injects it.
    """
    start = time.perf_counter()
    try:
        features = {
            name: get_feature(name, cell.entropy_bin_width) for name in cell.features
        }
    except AnalysisError as exc:
        raise ConfigurationError(f"cell {cell.key!r}: {exc}") from exc

    if cell.rate_classes is not None:
        return _run_multiclass_cell(cell, features, start)

    train_offset, test_offset = cell.seed_offsets
    if cell.capture is not None:
        if capture is None:
            raise ConfigurationError(
                f"cell {cell.key!r} is a two-level cell; the result of its gateway "
                f"capture {cell.capture.key!r} must be supplied"
            )
        if capture.fingerprint != cell.capture.fingerprint():
            raise ConfigurationError(
                f"cell {cell.key!r}: supplied capture {capture.key!r} does not match "
                f"the cell's capture spec"
            )
        by_offset = hybrid_captures_from_gateway(
            cell.scenario,
            cell.intervals_per_class,
            cell.seed,
            cell.seed_offsets,
            capture,
            noise_offsets=cell.noise_offsets,
        )
        train, test = by_offset[train_offset], by_offset[test_offset]
    else:
        noise_offsets = (
            cell.noise_offsets if cell.noise_offsets is not None else (None, None)
        )
        train = collect_labelled_intervals(
            cell.scenario,
            cell.intervals_per_class,
            mode=cell.mode,
            seed=cell.seed,
            seed_offset=train_offset,
            noise_offset=noise_offsets[0],
        )
        test = collect_labelled_intervals(
            cell.scenario,
            cell.intervals_per_class,
            mode=cell.mode,
            seed=cell.seed,
            seed_offset=test_offset,
            noise_offset=noise_offsets[1],
        )

    empirical: Dict[str, Dict[int, float]] = {name: {} for name in features}
    for name, feature in features.items():
        for n in cell.sample_sizes:
            empirical[name][n] = _measure_detection_rate(
                cell, train.intervals, test.intervals, feature, n
            )

    piat_stats = _collect_piat_stats(test.intervals) if cell.collect_piat_stats else {}

    return CellResult(
        key=cell.key,
        fingerprint=cell.fingerprint(),
        empirical_detection_rate=empirical,
        measured_variance_ratio=float(test.measured_variance_ratio()),
        measured_means={k: float(v) for k, v in test.measured_means().items()},
        piat_stats=piat_stats,
        elapsed_seconds=time.perf_counter() - start,
    )


__all__ = [
    "DEFAULT_FEATURES",
    "KDE_BANDWIDTH_RULES",
    "SCHEMA_VERSION",
    "SweepCell",
    "CellResult",
    "run_cell",
]
