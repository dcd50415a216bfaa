"""Performance benchmark harness: timings as a first-class, regression-gated artifact.

``repro bench run`` times the reproduction's hot paths — one capture at the
gateway and one behind shared routers, each under the vectorized kernel and
its event-engine reference, and a representative sweep cold and warm — and
writes a machine-readable ``BENCH_<pr>.json`` (:class:`BenchResult`) of nine
metrics: three speedup ratios, which gate CI, and the six timings they
divide.  ``repro bench compare`` diffs two such files with
direction-aware tolerances so CI can fail on a >20% regression against the
baseline checked into the repository.

Three design rules keep the artifact honest across machines:

* **The headline speedups are measured within one run.**
  ``cold_capture_speedup`` (gateway only) and ``routed_capture_speedup``
  (gateway plus shared routers with cross traffic) divide the event-engine
  capture time by the vectorized-kernel time for the *same* capture
  (:func:`repro.experiments.base.simulate_gateway_capture_events` against
  :func:`repro.experiments.base.simulate_gateway_capture`), and
  ``sweep_warm_speedup`` divides a cold sweep by its warm re-run, which
  reads the cold run's shards back from disk through a fresh store.
  Ratios of timings taken seconds apart on one machine are meaningful on
  any machine; absolute seconds are not.
* **Metric names encode their direction.**  ``*_seconds`` regress upward,
  ``*_speedup`` / ``*_per_sec`` regress downward (committed artifacts still
  carry throughput metrics); :func:`metric_direction` refuses names that
  encode neither, so a typo cannot silently pass CI.
* **Results carry an analytic cross-check.**  The benchmark capture's
  measured variance ratio is compared against the scenario's closed-form
  model and pushed through :mod:`repro.core.exact` — a benchmark that got
  fast by computing the wrong thing fails loudly.

See ``docs/performance.md`` for the profiling recipe and how to read the
artifact.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.defaults import DEFAULT_MAX_REGRESSION
from repro.exceptions import ConfigurationError

#: Version of the ``BENCH_*.json`` schema; bump on incompatible layout changes.
BENCH_SCHEMA_VERSION = 1

#: Metrics that are ratios of same-run timings, hence machine-independent.
#: CI compares only these against the committed baseline; absolute timings
#: are recorded for trend lines but never gate a differently-sized runner.
RATIO_METRICS = ("cold_capture_speedup", "routed_capture_speedup", "sweep_warm_speedup")


def metric_direction(name: str) -> str:
    """``'lower'`` or ``'higher'`` — which way the metric is better.

    Encoded in the name suffix so a new metric cannot enter the schema
    without declaring its direction.
    """
    if name.endswith("_seconds"):
        return "lower"
    if name.endswith("_speedup") or name.endswith("_per_sec"):
        return "higher"
    raise ConfigurationError(
        f"benchmark metric {name!r} must end in '_seconds' (lower is better) "
        "or '_speedup'/'_per_sec' (higher is better)"
    )


def collect_machine_info() -> Dict[str, Any]:
    """The environment fingerprint stored alongside every benchmark run.

    ``cpu_count`` is the machine's CPU count; ``cpu_count_available`` honours
    the scheduler affinity mask actually granted to this process (what
    ``--jobs auto`` sizes to) — on a pinned CI runner the two differ, which
    is exactly the context a throughput number needs.
    """
    import os

    from repro.runner.execute import available_cpu_count

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_count_available": available_cpu_count(),
    }


@dataclass(frozen=True)
class BenchResult:
    """One benchmark run: metrics plus enough context to interpret them."""

    pr: str
    machine: Dict[str, Any]
    metrics: Dict[str, float]
    notes: Dict[str, Any] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ConfigurationError("a benchmark result needs at least one metric")
        for name, value in self.metrics.items():
            metric_direction(name)  # validates the naming convention
            if not np.isfinite(value) or value < 0.0:
                raise ConfigurationError(
                    f"benchmark metric {name!r} must be finite and >= 0, got {value!r}"
                )

    # ------------------------------------------------------------------ (de)serialisation
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "pr": self.pr,
            "machine": dict(self.machine),
            "metrics": {name: float(value) for name, value in self.metrics.items()},
            "notes": dict(self.notes),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        """Inverse of :meth:`to_json_dict`; keys it does not read are ignored.

        The committed ``BENCH_*.json`` artifacts also carry a
        ``created_utc`` wall-clock stamp, which nothing reads.
        """
        schema = payload.get("schema")
        if schema != BENCH_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported benchmark schema {schema!r}; this build reads "
                f"schema {BENCH_SCHEMA_VERSION}"
            )
        try:
            return cls(
                pr=str(payload["pr"]),
                machine=dict(payload["machine"]),
                metrics={str(k): float(v) for k, v in payload["metrics"].items()},
                notes=dict(payload.get("notes", {})),
                schema=int(schema),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed benchmark payload: {exc}") from exc

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path) -> "BenchResult":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read benchmark file {path}: {exc}") from exc
        return cls.from_json_dict(payload)

    # ------------------------------------------------------------------ rendering
    def to_text(self) -> str:
        lines = [f"benchmark {self.pr}"]
        width = max(len(name) for name in self.metrics)
        for name in sorted(self.metrics):
            value = self.metrics[name]
            arrow = "↓" if metric_direction(name) == "lower" else "↑"
            lines.append(f"  {name.ljust(width)}  {value:>12.4f}  (better {arrow})")
        if self.notes:
            lines.append(f"  notes: {json.dumps(self.notes, sort_keys=True)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MetricComparison:
    """One metric's current-vs-baseline verdict."""

    name: str
    current: float
    baseline: float
    direction: str
    #: Relative change in the *bad* direction; negative values are improvements.
    regression: float
    regressed: bool


@dataclass(frozen=True)
class BenchComparison:
    """The full diff of two benchmark results."""

    rows: Tuple[MetricComparison, ...]
    #: Metric names present in only one of the two results (not compared).
    skipped: Tuple[str, ...]
    max_regression: float

    @property
    def ok(self) -> bool:
        return not any(row.regressed for row in self.rows)

    @property
    def regressions(self) -> Tuple[MetricComparison, ...]:
        return tuple(row for row in self.rows if row.regressed)

    def to_text(self) -> str:
        lines = [
            f"benchmark comparison (tolerance {self.max_regression:.0%} in the bad direction)"
        ]
        width = max((len(row.name) for row in self.rows), default=10)
        for row in sorted(self.rows, key=lambda r: r.name):
            verdict = "REGRESSED" if row.regressed else (
                "improved" if row.regression < -1e-9 else "ok"
            )
            change = (
                f"{-row.regression:.1%} better"
                if row.regression < 0.0
                else f"{row.regression:+.1%} worse"
            )
            lines.append(
                f"  {row.name.ljust(width)}  {row.baseline:>12.4f} -> {row.current:>12.4f}"
                f"  ({change})  {verdict}"
            )
        for name in self.skipped:
            lines.append(f"  {name.ljust(width)}  present in only one result; skipped")
        lines.append("PASS" if self.ok else "FAIL: benchmark regression detected")
        return "\n".join(lines)


def compare(
    current: BenchResult,
    baseline: Optional[BenchResult],
    max_regression: float = DEFAULT_MAX_REGRESSION,
    metrics: Optional[Sequence[str]] = None,
) -> BenchComparison:
    """Direction-aware diff of ``current`` against ``baseline``.

    ``regression`` is the relative change in each metric's *bad* direction
    (time increase for ``*_seconds``, throughput/speedup decrease otherwise),
    so improvements come out negative and a single tolerance covers both
    families.  A missing baseline (first run on a branch) compares nothing
    and passes; metrics present on only one side are listed as skipped.
    A zero-valued baseline metric with a non-zero current value raises a
    :class:`~repro.exceptions.ConfigurationError` naming the metric — no
    relative tolerance is meaningful against zero.
    ``metrics`` restricts the comparison — CI passes :data:`RATIO_METRICS`
    so absolute seconds from a different machine never gate a build.
    """
    if max_regression < 0.0:
        raise ConfigurationError(f"max_regression must be >= 0, got {max_regression!r}")
    if baseline is None:
        return BenchComparison(rows=(), skipped=(), max_regression=max_regression)
    names = set(current.metrics) | set(baseline.metrics)
    if metrics is not None:
        unknown = set(metrics) - names
        if unknown:
            raise ConfigurationError(
                f"--metric {sorted(unknown)} not present in either result; "
                f"known metrics: {sorted(names)}"
            )
        names = set(metrics)
    rows: List[MetricComparison] = []
    skipped: List[str] = []
    for name in sorted(names):
        if name not in current.metrics or name not in baseline.metrics:
            skipped.append(name)
            continue
        cur, base = current.metrics[name], baseline.metrics[name]
        direction = metric_direction(name)
        if base == 0.0:
            # A zero baseline admits no relative change; silently mapping it
            # to ±100% would let a broken baseline artifact pass (or fail)
            # the CI gate for the wrong reason.  Identical zeros are a
            # legitimate no-change; anything else must name the metric.
            if cur == 0.0:
                regression = 0.0
            else:
                raise ConfigurationError(
                    f"benchmark metric {name!r} has a zero-valued baseline "
                    f"({base!r} vs current {cur!r}); a relative regression "
                    "against zero is undefined — re-record the baseline "
                    "artifact for this metric"
                )
        elif direction == "lower":
            regression = (cur - base) / base
        else:
            regression = (base - cur) / base
        rows.append(
            MetricComparison(
                name=name,
                current=cur,
                baseline=base,
                direction=direction,
                regression=regression,
                regressed=regression > max_regression,
            )
        )
    return BenchComparison(
        rows=tuple(rows), skipped=tuple(skipped), max_regression=max_regression
    )


# --------------------------------------------------------------------------- measurement
def _best_of(repeats: int, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` calls (the standard noise filter)."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _time_capture(
    capture: Callable[..., np.ndarray],
    scenario,
    n_intervals: int,
    seed: int,
    repeats: int,
    with_network: bool,
):
    from repro.sim.random import RandomStreams

    def one_run() -> Dict[str, np.ndarray]:
        streams = RandomStreams(seed)
        return {
            label: capture(
                scenario, rate, n_intervals, streams, label, with_network=with_network
            )
            for label, rate in scenario.rate_labels.items()
        }

    return _best_of(repeats, one_run)


def _time_kernels(
    scenario, n_intervals: int, seed: int, repeats: int, with_network: bool
) -> Tuple[float, float, Dict[str, np.ndarray]]:
    """Event and vectorized timings of one capture, refused unless identical."""
    from repro.experiments.base import (
        simulate_gateway_capture,
        simulate_gateway_capture_events,
    )

    event_seconds, event_captures = _time_capture(
        simulate_gateway_capture_events, scenario, n_intervals, seed, repeats, with_network
    )
    vectorized_seconds, vectorized_captures = _time_capture(
        simulate_gateway_capture, scenario, n_intervals, seed, repeats, with_network
    )
    if not all(
        np.array_equal(event_captures[label], vectorized_captures[label])
        for label in event_captures
    ):
        raise ConfigurationError(
            "event and vectorized kernels produced different captures; the "
            "benchmark refuses to report a speedup for a broken kernel"
        )
    return event_seconds, vectorized_seconds, vectorized_captures


#: Seeds of the benchmark sweep.  fig6's quick preset has two cells per
#: seed, so 64 seeds give 128 cells: enough that the warm re-run, about
#: 0.1 ms of shard reads per cell, takes over 10 ms and stays well above
#: timer and scheduler noise.
SWEEP_SEEDS = 64


def _time_sweep(seed: int, repeats: int) -> Tuple[float, float, int]:
    """Best-of-``repeats`` cold and warm wall-clock of a representative sweep.

    Every cold run simulates fig6's shared gateway capture once per seed and
    writes the cell records, and nothing else, into a fresh store.  Its warm
    re-run opens that directory as a new
    :class:`~repro.runner.store.ResultsStore`, as a second ``repro sweep``
    invocation does; the store keeps no records in memory, so every warm
    lookup reads its shard from disk and no capture is simulated.
    """
    from repro.api import get_experiment
    from repro.runner.grid import seed_range
    from repro.runner.runner import SweepRunner
    from repro.runner.store import ResultsStore

    cells = get_experiment("fig6", "quick", seed).cells(seed_range(seed, SWEEP_SEEDS))
    cold = warm = float("inf")
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            start = time.perf_counter()
            SweepRunner(store=ResultsStore(Path(tmp))).run(cells)
            cold = min(cold, time.perf_counter() - start)
            start = time.perf_counter()
            report = SweepRunner(store=ResultsStore(Path(tmp))).run(cells)
            warm = min(warm, time.perf_counter() - start)
        if report.misses:
            raise ConfigurationError(
                f"warm sweep re-simulated {report.misses} cells; the store is "
                "not resolving fingerprints (cache regression)"
            )
    return cold, warm, len(cells)


def run_bench(
    pr: str,
    *,
    seed: int = 2003,
    capture_intervals: int = 4000,
    repeats: int = 3,
) -> BenchResult:
    """Measure the hot paths and return the benchmark artifact.

    The capture benchmarks run the same two-class capture — at the gateway,
    and behind two shared routers with cross traffic — through the event
    reference and the vectorized kernel from identical seeds, check the
    outputs are byte-identical (the kernel contract), and cross-check the
    measured variance ratio against the closed forms in
    :mod:`repro.core.exact`.
    """
    from repro.core.exact import detection_rate_variance_exact
    from repro.experiments.base import ScenarioConfig

    scenario = ScenarioConfig()
    event_seconds, vectorized_seconds, vectorized_captures = _time_kernels(
        scenario, capture_intervals, seed, repeats, with_network=False
    )
    # 20 Mbit/s links keep the event engine's side of the routed pair short.
    routed = ScenarioConfig(n_hops=2, link_rate_bps=20e6, cross_utilization=0.2)
    routed_event_seconds, routed_vectorized_seconds, _ = _time_kernels(
        routed, capture_intervals, seed, repeats, with_network=True
    )

    sweep_cold, sweep_warm, n_cells = _time_sweep(seed, repeats)

    low = float(np.var(vectorized_captures["low"], ddof=1))
    high = float(np.var(vectorized_captures["high"], ddof=1))
    measured_r = high / low
    model_r = scenario.variance_ratio()

    metrics = {
        "capture_event_seconds": event_seconds,
        "capture_vectorized_seconds": vectorized_seconds,
        "cold_capture_speedup": event_seconds / vectorized_seconds,
        "routed_capture_event_seconds": routed_event_seconds,
        "routed_capture_vectorized_seconds": routed_vectorized_seconds,
        "routed_capture_speedup": routed_event_seconds / routed_vectorized_seconds,
        "sweep_cold_seconds": sweep_cold,
        "sweep_warm_seconds": sweep_warm,
        "sweep_warm_speedup": sweep_cold / sweep_warm,
    }
    notes = {
        "capture_intervals": capture_intervals,
        "repeats": repeats,
        "seed": seed,
        "sweep": f"fig6 --preset quick --seeds {SWEEP_SEEDS}",
        "sweep_cells": n_cells,
        "captures_identical": True,
        "routed_capture": {
            "n_hops": routed.n_hops,
            "link_rate_bps": routed.link_rate_bps,
            "cross_utilization": routed.cross_utilization,
        },
        "analytic_crosscheck": {
            "measured_variance_ratio": measured_r,
            "model_variance_ratio": model_r,
            "exact_detection_rate_at_1000": detection_rate_variance_exact(
                measured_r, 1000
            ),
        },
    }
    return BenchResult(
        pr=pr,
        machine=collect_machine_info(),
        metrics=metrics,
        notes=notes,
    )


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_MAX_REGRESSION",
    "RATIO_METRICS",
    "BenchComparison",
    "BenchResult",
    "MetricComparison",
    "collect_machine_info",
    "compare",
    "metric_direction",
    "run_bench",
]
