"""Tests for the checker engine: clean real tree, loud doctored tree."""

from __future__ import annotations

import shutil

import pytest

from repro.analysis.checker import discover_modules, run_check
from repro.exceptions import ConfigurationError

from analysis_helpers import SRC_ROOT

#: One violation per rule family, injected into the doctored tree.
_BAD_MODULE = '''\
"""Doctored module: one violation per rule family."""

import random
import time

import numpy as np


def undisciplined(streams):
    rng = np.random.default_rng()
    draw = np.random.normal()
    stamp = time.time()
    stream = streams.get("paylaod")
    for item in {1, 2, 3}:
        stamp += item
    return rng, draw, stamp, stream


class DoctoredExperiment:
    name = "doctored"
'''


@pytest.fixture
def doctored_root(tmp_path):
    """A full copy of the real package with seeded violations."""
    root = tmp_path / "tree"
    shutil.copytree(
        SRC_ROOT / "repro",
        root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (root / "repro" / "experiments" / "doctored_bad.py").write_text(_BAD_MODULE)
    cells = root / "repro" / "runner" / "cells.py"
    cells.write_text(
        cells.read_text().replace("trials: int", "trials: int\n    sneaky: int = 0", 1)
    )
    return root


class TestRunCheck:
    def test_real_tree_is_clean(self):
        report = run_check(root=SRC_ROOT)
        assert report.findings == []
        assert report.ok and report.exit_code == 0
        # The one justified exception is consumed, not reported.
        assert report.suppressed_count == 1

    def test_real_tree_without_baseline_shows_the_justified_findings(self):
        report = run_check(root=SRC_ROOT, use_baseline=False)
        assert report.exit_code == 1
        assert sorted(f.rule for f in report.findings) == ["CLK001"]

    def test_doctored_tree_fails_per_family(self, doctored_root):
        report = run_check(root=doctored_root, use_baseline=False)
        assert report.exit_code == 1
        fired = {f.rule for f in report.findings}
        assert {"RNG001", "RNG002", "RNG003", "RNG004", "CLK001", "ORD001",
                "SCH001", "EXP002"} <= fired

    def test_rule_filter_restricts_the_run(self, doctored_root):
        report = run_check(
            root=doctored_root, use_baseline=False, rule_filter=["SCH001"]
        )
        assert {f.rule for f in report.findings} == {"SCH001"}
        assert report.rules_run == ["SCH001"]

    def test_rule_filter_does_not_stale_unexercised_baseline_entries(self):
        # The shipped baseline excuses a CLK001 finding. A run restricted
        # to another rule must not flag that entry as stale (BASE001) — it
        # was never exercised.
        report = run_check(root=SRC_ROOT, rule_filter=["RNG004"])
        assert report.findings == []
        assert report.ok
        assert report.suppressed_count == 0

    def test_unknown_rule_filter_raises(self):
        with pytest.raises(ConfigurationError, match="NOPE99"):
            run_check(root=SRC_ROOT, rule_filter=["NOPE99"])

    def test_unparseable_module_is_a_parse_finding(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "broken.py").write_text("def oops(:\n")
        report = run_check(root=tmp_path, use_baseline=False)
        assert [f.rule for f in report.findings if f.rule == "PARSE"] == ["PARSE"]
        assert report.exit_code == 1

    def test_root_without_package_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="repro"):
            run_check(root=tmp_path)

    def test_stale_baseline_entry_is_an_error(self, tmp_path):
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            '[[ignore]]\nrule = "RNG001"\npath = "repro/gone.py"\n'
            'reason = "the module was deleted"\n'
        )
        report = run_check(root=SRC_ROOT, baseline_path=baseline)
        rules = sorted(f.rule for f in report.findings)
        # The real (normally baselined) finding resurfaces plus BASE001.
        assert rules == ["BASE001", "CLK001"]
        assert report.exit_code == 1

    def test_json_report_round_trips(self):
        import json

        report = run_check(root=SRC_ROOT)
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["modules_checked"] == report.modules_checked
        assert len(payload["suppressed"]) == 1


class TestDiscoverModules:
    def test_discovers_the_whole_package(self):
        modules, failures = discover_modules(SRC_ROOT)
        assert failures == []
        assert "repro/sim/random.py" in modules
        assert all(rel.startswith("repro/") for rel in modules)
        assert len(modules) > 50
