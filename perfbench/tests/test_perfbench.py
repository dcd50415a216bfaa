"""The benchmark's own tests.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.  They
start real benchmark runs (about three minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, EXPERIMENTS, WORKLOADS, invocation_cells  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The span each workload exists to stress.
DOMINANT_SPAN = {
    "routed-sim": "sim.engine.run_s",
    "sweep-cold": "adversary.attack_s",
    "sweep-warm": "stats.bootstrap.ci_s",
}


def bench(*args: str, cwd: Path = ROOT):
    """(process, parsed last stdout line or None) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.fixture(scope="module")
def traced():
    """One short traced run per workload at the pinned seed."""
    return {
        name: bench("--workload", name, "--seed", str(DEFAULT_SEED),
                    "--seconds", "1", "--trace", "1")
        for name in WORKLOADS
    }


def test_benchmark_json_declares_what_run_py_prints():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_every_registered_experiment_is_swept():
    from repro.api import list_experiments

    assert sorted(list_experiments()) == sorted(EXPERIMENTS)


def test_untraced_run_prints_the_end_to_end_metrics():
    proc, result = bench("--workload", "routed-sim", "--seed", str(DEFAULT_SEED),
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_prints_per_layer_metrics_that_add_up(traced, name):
    proc, result = traced[name]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [m["name"] for m in SPEC["per_layer"]]
    values = {key: m["value"] for key, m in result["metrics"].items()}
    layers = sum(values[key] for key in tracer.SELF_TIME_METRICS) + values["other.self_s"]
    assert layers == pytest.approx(values["trace.wall_s"], rel=1e-9)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_dominant_span_matches_the_workload_rationale(traced, name):
    """The stated span takes longer than any span that does not contain it."""
    assert traced[name][0].returncode == 0
    spans = tracer.read_spans(ROOT / run.WORK_DIR / f"trace-{name}.jsonl")
    inclusive = defaultdict(float)
    containing = set()
    for span in spans:
        names_above, parent = [], span["parent"]
        while parent >= 0:
            names_above.append(spans[parent]["name"])
            parent = spans[parent]["parent"]
        if span["name"] not in names_above:  # count nested re-entry once
            inclusive[span["name"]] += span["end"] - span["start"]
        if span["name"] == DOMINANT_SPAN[name]:
            containing.update(names_above)
    expected = DOMINANT_SPAN[name]
    rivals = {key: value for key, value in inclusive.items()
              if key not in containing and key != expected}
    assert inclusive[expected] > max(rivals.values()), (expected, dict(inclusive))


def test_layer_counters_read_at_span_boundaries(traced):
    metrics = {name: {key: m["value"] for key, m in traced[name][1]["metrics"].items()}
               for name in WORKLOADS}
    routed, cold, warm = metrics["routed-sim"], metrics["sweep-cold"], metrics["sweep-warm"]
    assert routed["sim.engine.events"] > 0 and routed["network.router.packets"] > 0
    assert routed["sim.kernel.vectorized_share"] == 0.0
    assert cold["sim.kernel.vectorized_share"] == 1.0 and cold["runner.store.puts"] > 0
    assert warm["runner.cache_hit_ratio"] == 1.0 and warm["runner.store.puts"] == 0
    assert warm["stats.bootstrap.resamples"] == 2000 * warm["stats.bootstrap.calls"]
    for values in metrics.values():
        assert values["setup.import.scipy_s"] > 0 and values["setup.import.repro_s"] > 0


def test_uninstall_restores_every_original_object():
    import repro.cli  # noqa: F401
    import repro.runner.grid
    import repro.stats.bootstrap

    original = repro.stats.bootstrap.bootstrap_ci
    active = tracer.Tracer().install()
    patches = active.patches
    assert patches
    assert repro.runner.grid.bootstrap_ci is not original  # the alias is wrapped too
    for owner, attr, before in patches:
        assert owner.__dict__[attr] is not before
    active.uninstall()
    for owner, attr, before in patches:
        assert owner.__dict__[attr] is before
    assert repro.runner.grid.bootstrap_ci is original
    assert repro.stats.bootstrap.bootstrap_ci is original


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_seed_argument_changes_the_generated_inputs(name):
    fingerprints = {
        seed: [cell.fingerprint() for cell in invocation_cells(WORKLOADS[name], seed)]
        for seed in (1, 100)  # far apart, so the --seeds fan-outs do not overlap
    }
    assert len(fingerprints[1]) == len(fingerprints[100]) > 0
    assert set(fingerprints[1]).isdisjoint(fingerprints[100])


def test_a_doctored_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    pinned = json.loads(run.DIGESTS.read_text())
    pinned["reports"]["routed-sim"] = "0" * 64
    doctored = tmp_path / "digests.json"
    doctored.write_text(json.dumps(pinned))
    monkeypatch.setattr(run, "DIGESTS", doctored)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "routed-sim", "--seed", str(pinned["seed"]),
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "differs from digests.json" in out


def test_warm_checks_catch_a_changed_store_and_simulation():
    report = "table\n\nsweep summary: 2 cells, 0 simulated, 2 cache hits, jobs=1"
    result = {"report": report, "error": None, "code": 0}
    check = dict(expected=2, reference=report, pinned_digest=None)
    assert checks.check_invocation(result, **check, warm=True,
                                   store_before={}, store_after={}) == (0, [])
    failed, _ = checks.check_invocation(result, **check, warm=True,
                                        store_before={"a": "1"}, store_after={"a": "2"})
    assert failed == 2
    cold = report.replace("0 simulated, 2 cache hits", "2 simulated, 0 cache hits")
    failed, _ = checks.check_invocation({**result, "report": cold}, **check, warm=True)
    assert failed == 2
    missing = report.replace("2 cells", "1 cells")
    assert checks.check_invocation({**result, "report": missing}, **check)[0] == 1
    failed, problems = checks.check_invocation(result, **check, point_keys=["h3-u0.45"])
    assert failed == 2 and "grid points missing" in problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = bench("--workload", "routed-sim", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
