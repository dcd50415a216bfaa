"""Benchmark entry point: time one workload end to end, or trace it layer by layer.

Run from the root of a checkout (it builds nothing; the program is the
``src/`` tree next to this directory)::

    python3 perfbench/run.py --workload routed-sim --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all            # every workload, one table

Each invocation of the program runs in its own fresh interpreter, one after
another (the untimed store fill of ``sweep-warm`` comes first).  A run makes
as many invocations as fit in ``--seconds`` at the workload's nominal
invocation time, at least ``MIN_INVOCATIONS``; every invocation does the
same fixed work, and the run reports medians.  The last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent

import checks  # noqa: E402  - siblings of this script
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, Workload, invocation_cells, routed_point_keys,
)

#: (name, unit) of the end-to-end metrics, reported as medians.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: (name, unit) of the per-layer metrics a traced run reports.
PER_LAYER = (
    ("setup.import.scipy_s", "s"),
    ("setup.import.numpy_s", "s"),
    ("setup.import.repro_s", "s"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.kernel.capture_s", "s"),
    ("sim.kernel.vectorized_share", "ratio"),
    ("sim.kernel.gateway_captures", "count"),
    ("network.router.packets", "count"),
    ("network.router.cross_share", "ratio"),
    ("sim.monitor.samples", "count"),
    ("experiments.capture_s", "s"),
    ("experiments.captures", "count"),
    ("runner.capture_s", "s"),
    ("runner.captures_simulated", "count"),
    ("adversary.attack_s", "s"),
    ("adversary.attacks", "count"),
    ("adversary.features_s", "s"),
    ("adversary.feature_samples", "count"),
    ("adversary.classify_calls", "count"),
    ("stats.kde.logpdf_s", "s"),
    ("stats.kde.logpdf_calls", "count"),
    ("stats.kde.points_per_call", "count"),
    ("stats.bootstrap.ci_s", "s"),
    ("stats.bootstrap.calls", "count"),
    ("stats.bootstrap.resamples", "count"),
    ("runner.grid.aggregate_s", "s"),
    ("runner.grid.cells_s", "s"),
    ("runner.fingerprints", "count"),
    ("runner.store.get_s", "s"),
    ("runner.store.gets", "count"),
    ("runner.store.put_s", "s"),
    ("runner.store.puts", "count"),
    ("runner.cache_hit_ratio", "ratio"),
    ("runner.cells_seen", "count"),
    ("experiments.assemble_s", "s"),
    ("experiments.render_s", "s"),
    ("population.cells_s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.wall_s", "s"),
)

MIN_INVOCATIONS = 3
MAX_INVOCATIONS = 40
#: Seconds one invocation may take before it is killed and counted failed.
INVOCATION_TIMEOUT = 50
WORK_DIR = ".perfbench-work"
DIGESTS = HERE / "digests.json"


def calibrate() -> Dict[str, float]:
    """Time a fixed pure-Python and a fixed numpy loop (drift metadata only)."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value
    python_s = time.perf_counter() - start
    data = np.random.default_rng(0).random(1_000_000)
    start = time.perf_counter()
    for _ in range(10):
        np.sort(data)
    numpy_s = time.perf_counter() - start
    return {"python_loop_s": python_s, "numpy_sort_s": numpy_s}


def invocation_count(workload: Workload, seconds: float) -> int:
    """Invocations in a run of ``seconds``; set by the run length alone."""
    count = round(seconds / workload.invocation_s)
    return min(MAX_INVOCATIONS, max(MIN_INVOCATIONS, count))


def child_env(root: Path) -> Dict[str, str]:
    """The checkout's program first on the path; a fixed hash seed, so that
    dict and set layouts do not vary from one invocation to the next."""
    paths = [str(root / "src"), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0")


def invoke(
    root: Path, work: Path, workload: Workload, seed: int, argv: List[str],
    trace: bool, tag: str,
) -> Dict[str, Any]:
    """One fresh-interpreter invocation; a crashed child yields an ``error``."""
    request = {
        "argv": argv, "trace": trace,
        "result": str(work / f"{tag}.result.json"),
        "spans": str(work / f"{tag}.spans.jsonl"),
        "run_id": f"{workload.name}-{seed}-{os.getpid()}-{tag}",
    }
    request_path = work / f"{tag}.request.json"
    request_path.write_text(json.dumps(request))
    env = child_env(root)
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(request_path)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=INVOCATION_TIMEOUT,
        )
        stderr = proc.stderr
    except subprocess.TimeoutExpired:
        stderr = f"killed after {INVOCATION_TIMEOUT} s"
    result_path = Path(request["result"])
    if not result_path.exists():
        return {"crashed": stderr.strip().splitlines()[-1:] or ["no result"]}
    result = json.loads(result_path.read_text())
    if not Path(result["repro_file"]).resolve().is_relative_to((root / "src").resolve()):
        result["error"] = f"imported repro from {result['repro_file']}, not this checkout"
    result["spans"] = request["spans"]
    return result


def import_self_times(root: Path) -> Dict[str, float]:
    """Self import time per top-level package, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=INVOCATION_TIMEOUT,
    )
    totals = {"scipy": 0.0, "numpy": 0.0, "repro": 0.0}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) / 1e6
    return {f"setup.import.{name}_s": value for name, value in totals.items()}


class Run:
    """Invocations of one workload, their checks and their metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 pinned_digest: Optional[str]) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.pinned_digest = pinned_digest
        self.root = Path.cwd()
        self.work = self.root / WORK_DIR / f"run-{os.getpid()}"
        # What every invocation must report depends only on (workload, seed).
        self.expected = len(invocation_cells(workload, seed))
        self.point_keys = routed_point_keys() if workload.name == "routed-sim" else []
        self.results: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[str] = None

    def _count(self, result: Dict[str, Any], **check: Any) -> None:
        if "crashed" in result:
            failed, problems = self.expected, [f"invocation crashed: {result['crashed']}"]
        else:
            failed, problems = checks.check_invocation(
                result, expected=self.expected, point_keys=self.point_keys,
                reference=self.reference, pinned_digest=self.pinned_digest, **check,
            )
        self.attempted += self.expected
        self.failed += failed
        self.problems += problems

    def execute(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        store = self.work / "store"
        warm = self.workload.store == "filled"
        snapshot = None
        if warm:
            fill = invoke(self.root, self.work, self.workload, self.seed,
                          self.workload.argv(self.seed, store), False, "fill")
            if "crashed" not in fill and fill["code"] == 0:
                self.reference = fill["report"]
                snapshot = checks.store_snapshot(store)
            else:
                self._count(fill)
        for index in range(invocation_count(self.workload, self.seconds)):
            if self.workload.store == "fresh":
                store = self.work / f"store-{index}"
            traced = self.trace and index % 2 == 1
            result = invoke(self.root, self.work, self.workload, self.seed,
                            self.workload.argv(self.seed, store), traced, f"i{index}")
            result["traced"] = traced
            self._count(
                result, warm=warm, store_before=snapshot,
                store_after=checks.store_snapshot(store) if warm else None,
            )
            if self.reference is None and "crashed" not in result:
                self.reference = result["report"]
            if self.workload.store == "fresh":
                shutil.rmtree(store, ignore_errors=True)
            self.results.append(result)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def _timed(self, traced: bool) -> List[Dict[str, Any]]:
        return [r for r in self.results if "crashed" not in r and r["traced"] == traced]

    def end_to_end(self) -> Dict[str, List[float]]:
        timed = self._timed(False)
        return {name: [r[name] for r in timed] for name, _ in END_TO_END}

    def per_layer(self) -> Dict[str, float]:
        traced = sorted(self._timed(True), key=lambda r: r["wall_s"])
        if not traced:
            return {name: 0.0 for name, _ in PER_LAYER}
        chosen = traced[(len(traced) - 1) // 2]
        metrics = tracer.layer_metrics(tracer.read_spans(Path(chosen["spans"])), chosen["counts"])
        untraced = self.end_to_end()["wall_s"]
        metrics["trace.overhead_s"] = (
            chosen["wall_s"] - statistics.median(untraced) if untraced else 0.0
        )
        metrics.update(import_self_times(self.root))
        shutil.copyfile(chosen["spans"], self.root / WORK_DIR / f"trace-{self.workload.name}.jsonl")
        return metrics


def run_workload(workload: Workload, args: argparse.Namespace,
                 pinned: Dict[str, Any]) -> Dict[str, Any]:
    pinned_digest = pinned["reports"].get(workload.name) if args.seed == pinned["seed"] else None
    run = Run(workload, args.seed, args.seconds, bool(args.trace), pinned_digest)
    calibration = calibrate()
    try:
        run.execute()
        if args.trace:
            layer = run.per_layer()
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            samples = run.end_to_end()
            metrics = {
                name: {"value": statistics.median(samples[name]) if samples[name] else 0.0,
                       "unit": unit}
                for name, unit in END_TO_END
            }
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    print(f"perfbench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"invocations={len(run.results)}")
    if not args.trace:
        for name, unit in END_TO_END:
            values = samples[name]
            quartiles = ""
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                quartiles = f" q1={q1:.4g} q3={q3:.4g}"
            print(f"  {name:<12} median={metrics[name]['value']:.4g} {unit} "
                  f"n={len(values)}{quartiles}")
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_rate':<12} {rate:.4g} ({run.failed} of {run.attempted} cells failed)")
    for problem in dict.fromkeys(run.problems):
        print(f"  CHECK FAILED: {problem}")
    print("perfbench meta: " + json.dumps({"workload": workload.name, "calibration": calibration}))
    return {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "repro" / "cli.py").is_file():
        print("perfbench: error: run from the root of a checkout (src/repro/cli.py "
              "not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path.cwd() / "src"))
    pinned = json.loads(DIGESTS.read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {name: run_workload(WORKLOADS[name], args, pinned) for name in names}
    if args.workload == "all":
        outcome = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{name}.{metric}": value for name, o in outcomes.items()
                        for metric, value in o["metrics"].items()},
        }
    else:
        outcome = outcomes[args.workload]
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
