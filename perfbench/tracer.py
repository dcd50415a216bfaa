"""Span tracing from outside the program: wrap each layer's public calls.

:meth:`Tracer.install` replaces the public entry points of every layer the
benchmark reports on with thin wrappers that record a span (name, start,
end, parent) in memory, and read the counters the layers already keep at
the span's boundaries.  Nothing is wrapped per packet.  :meth:`Tracer.uninstall`
puts every original function object back, so an untraced run sees exactly
the code the program ships.

A span's *self time* is its duration minus the time its child spans cover.
The root span wraps the whole ``repro.cli.main`` call; its self time is the
time no layer span covers (``other.self_s``), so the self times of all span
names add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name): the layer boundaries timed as spans.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "sim.engine.run_s"),
    ("repro.sim.kernel", "simulate_padded_capture", "sim.kernel.capture_s"),
    ("repro.experiments.base", "collect_labelled_intervals", "experiments.capture_s"),
    ("repro.runner.capture", "run_capture", "runner.capture_s"),
    ("repro.adversary.detection", "evaluate_attack", "adversary.attack_s"),
    ("repro.adversary.multiclass", "evaluate_multiclass_attack", "adversary.attack_s"),
    ("repro.adversary.detection", "extract_feature_samples", "adversary.features_s"),
    ("repro.stats.kde", "GaussianKDE.logpdf", "stats.kde.logpdf_s"),
    ("repro.stats.bootstrap", "bootstrap_ci", "stats.bootstrap.ci_s"),
    ("repro.runner.grid", "aggregate_cells", "runner.grid.aggregate_s"),
    ("repro.runner.grid", "GridSpec.cells", "runner.grid.cells_s"),
    ("repro.runner.store", "ResultsStore.get", "runner.store.get_s"),
    ("repro.runner.store", "ResultsStore.put", "runner.store.put_s"),
    ("repro.population.experiment", "PopulationExperiment.cells", "population.cells_s"),
)

#: (module, attribute path, counter name): calls counted without a span.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.base", "simulate_gateway_capture", "sim.kernel.gateway_captures"),
    ("repro.adversary.bayes", "KDEBayesClassifier.classify", "adversary.classify_calls"),
    ("repro.runner.cells", "SweepCell.fingerprint", "runner.fingerprints"),
)

#: Every experiment's ``assemble`` and every result's ``to_text`` in these
#: packages is timed too (discovered at install time).
EXPERIMENT_PACKAGES = ("repro.experiments", "repro.api", "repro.population")
ASSEMBLE_SPAN = "experiments.assemble_s"
RENDER_SPAN = "experiments.render_s"

ROOT_SPAN = "cli.main"

#: Span name -> the counter holding its number of calls.
CALL_COUNTERS = {
    "experiments.capture_s": "experiments.captures",
    "adversary.attack_s": "adversary.attacks",
    "stats.kde.logpdf_s": "stats.kde.logpdf_calls",
    "stats.bootstrap.ci_s": "stats.bootstrap.calls",
    "runner.store.get_s": "runner.store.gets",
    "runner.store.put_s": "runner.store.puts",
}

#: Every per-span self-time metric, plus the root's (``other.self_s``).
SELF_TIME_METRICS = tuple(
    dict.fromkeys(
        [name for _, _, name in SPAN_TARGETS] + [ASSEMBLE_SPAN, RENDER_SPAN]
    )
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    """The object owning the attribute ``path`` names, and the attribute."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder and the wrappers that feed it."""

    def __init__(self) -> None:
        # A span is [name, start, end, parent index]; -1 marks the root.
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._routers: List[Any] = []
        self._runners: List[Any] = []

    # ------------------------------------------------------------ recording
    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            done = probe(args, kwargs) if probe is not None else None
            result = self.call(name, fn, *args, **kwargs)
            if done is not None:
                done(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # --------------------------------------------- counters at span bounds
    def _probe_engine(self, args: tuple, kwargs: dict) -> Callable:
        simulator, start = args[0], args[0].processed_events

        def done(_result: Any) -> None:
            self.counts["sim.engine.events"] += simulator.processed_events - start
            for router in self._routers:
                self.counts["network.router.packets"] += router.counters.get("received")
                self.counts["network.router.cross"] += router.counters.get("received_cross")
                self.counts["sim.monitor.samples"] += len(router.queue_monitor)
            self._routers.clear()

        return done

    def _probe_features(self, args: tuple, kwargs: dict) -> Callable:
        def done(result: Any) -> None:
            self.counts["adversary.feature_samples"] += len(result)

        return done

    def _probe_logpdf(self, args: tuple, kwargs: dict) -> None:
        points = args[1] if len(args) > 1 else kwargs["x"]
        self.counts["stats.kde.points"] += getattr(points, "size", 1)
        return None

    def _probe_bootstrap(self, args: tuple, kwargs: dict) -> None:
        bound = self._bootstrap_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        self.counts["stats.bootstrap.resamples"] += int(bound.arguments["resamples"])
        return None

    # ------------------------------------------------------------- install
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Patch ``owner.attr`` and, for a module function, every alias of it.

        ``from module import function`` binds the function object into the
        importing module, so every ``repro`` module global that *is* the
        original is replaced too.
        """
        original = owner.__dict__[attr]
        self._patch(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is owner or not name.startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, alias, wrapper)

    def install(self) -> "Tracer":
        """Wrap every target; returns ``self``."""
        import repro.cli  # noqa: F401  - registers every experiment module

        probes: Dict[str, Callable] = {
            "sim.engine.run_s": self._probe_engine,
            "adversary.features_s": self._probe_features,
            "stats.kde.logpdf_s": self._probe_logpdf,
            "stats.bootstrap.ci_s": self._probe_bootstrap,
        }
        from repro.stats.bootstrap import bootstrap_ci

        self._bootstrap_signature = inspect.signature(bootstrap_ci)
        for module_name, path, name in SPAN_TARGETS:
            owner, attr = _resolve(module_name, path)
            wrapper = self._span_wrapper(name, owner.__dict__[attr], probes.get(name))
            self._patch_function(owner, attr, wrapper)
        for module_name, path, name in COUNT_TARGETS:
            owner, attr = _resolve(module_name, path)
            self._patch_function(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))
        for cls in self._experiment_classes():
            for attr, name in (("assemble", ASSEMBLE_SPAN), ("to_text", RENDER_SPAN)):
                if inspect.isfunction(cls.__dict__.get(attr)):
                    self._patch(cls, attr, self._span_wrapper(name, cls.__dict__[attr], None))
        self._record_instances(_resolve("repro.network.router", "Router.__init__"), self._routers)
        self._record_instances(_resolve("repro.runner.runner", "SweepRunner.__init__"), self._runners)
        return self

    def _record_instances(self, target: Tuple[Any, str], into: List[Any]) -> None:
        owner, attr = target
        original = owner.__dict__[attr]

        def __init__(instance: Any, *args: Any, **kwargs: Any) -> None:
            original(instance, *args, **kwargs)
            into.append(instance)

        __init__.__wrapped__ = original  # type: ignore[attr-defined]
        self._patch(owner, attr, __init__)

    @staticmethod
    def _experiment_classes() -> List[type]:
        classes = []
        for name, module in sorted(sys.modules.items()):
            if not name.startswith(EXPERIMENT_PACKAGES) or module is None:
                continue
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    classes.append(value)
        return classes

    def uninstall(self) -> None:
        """Restore every original object, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patches(self) -> List[Tuple[Any, str, Any]]:
        """The live (owner, attribute, original) patches."""
        return list(self._patches)

    # -------------------------------------------------------------- output
    def runner_counts(self) -> Dict[str, int]:
        """Counters the sweep runners kept, summed over every runner built."""
        return {
            "runner.cells_seen": sum(r.cells_seen for r in self._runners),
            "runner.cache_hits": sum(r.cache_hits for r in self._runners),
            "runner.captures_simulated": sum(r.captures_simulated for r in self._runners),
        }

    def write(self, path: Path, run_id: str) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"run": run_id, "id": index, "name": name,
                         "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def read_spans(path: Path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time summed per span name; the root's goes to ``other.self_s``.

    Also returns the root's duration as ``trace.wall_s``.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: Dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS}
    totals["other.self_s"] = 0.0
    for span, children in zip(spans, covered):
        duration = span["end"] - span["start"]
        if span["parent"] < 0:
            totals["other.self_s"] += duration - children
            totals["trace.wall_s"] = duration
        else:
            totals[span["name"]] += duration - children
    return totals


def layer_metrics(spans: List[Dict[str, Any]], counts: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric of one traced invocation, except set-up and overhead."""
    metrics: Dict[str, float] = dict(self_times(spans))
    calls = Counter(span["name"] for span in spans)
    for span_name, counter in CALL_COUNTERS.items():
        metrics[counter] = calls[span_name]
    gateway = counts.get("sim.kernel.gateway_captures", 0)
    packets = counts.get("network.router.packets", 0)
    logpdf_calls = calls["stats.kde.logpdf_s"]
    cells = counts.get("runner.cells_seen", 0)
    metrics.update(
        {
            "sim.engine.events": counts.get("sim.engine.events", 0),
            "sim.kernel.gateway_captures": gateway,
            "sim.kernel.vectorized_share": calls["sim.kernel.capture_s"] / gateway if gateway else 0.0,
            "network.router.packets": packets,
            "network.router.cross_share": counts.get("network.router.cross", 0) / packets if packets else 0.0,
            "sim.monitor.samples": counts.get("sim.monitor.samples", 0),
            "runner.captures_simulated": counts.get("runner.captures_simulated", 0),
            "adversary.feature_samples": counts.get("adversary.feature_samples", 0),
            "adversary.classify_calls": counts.get("adversary.classify_calls", 0),
            "stats.kde.points_per_call": counts.get("stats.kde.points", 0) / logpdf_calls if logpdf_calls else 0.0,
            "stats.bootstrap.resamples": counts.get("stats.bootstrap.resamples", 0),
            "runner.fingerprints": counts.get("runner.fingerprints", 0),
            "runner.cells_seen": cells,
            "runner.cache_hit_ratio": counts.get("runner.cache_hits", 0) / cells if cells else 0.0,
        }
    )
    return metrics
