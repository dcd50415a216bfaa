"""Tests for the checker engine: clean real tree, loud doctored tree."""

from __future__ import annotations

import json
import re
import shutil

import pytest

from repro.analysis.checker import RULES, all_rules, discover_modules, run_check
from repro.exceptions import ConfigurationError

from analysis_helpers import SRC_ROOT

#: One violation per rule, injected into the doctored tree.
_BAD_MODULE = '''\
"""Doctored module: one violation per rule."""

import os
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
    names = os.listdir(".")
    return rng, draw, stamp, stream, names
'''

#: Every rule id; the doctored tree fires each of them.
_ALL_RULE_IDS = {"RNG001", "RNG002", "RNG003", "RNG004", "CLK001", "ORD001", "ORD002"}

#: The rule table in the determinism guide, one backticked id per row.
_DETERMINISM_DOC = SRC_ROOT.parent / "docs" / "determinism.md"


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
    return root


class TestRuleTable:
    def test_rule_ids_are_unique(self):
        ids = [cls.rule_id for cls in RULES]
        assert len(ids) == len(set(ids))
        assert set(ids) == _ALL_RULE_IDS

    def test_every_rule_has_a_title(self):
        assert all(cls.title for cls in RULES)

    def test_all_rules_are_fresh_and_sorted(self):
        first, second = all_rules(), all_rules()
        assert [rule.rule_id for rule in first] == sorted(_ALL_RULE_IDS)
        assert all(a is not b for a, b in zip(first, second))

    def test_the_determinism_guide_lists_exactly_these_rules(self):
        section = _DETERMINISM_DOC.read_text(encoding="utf-8").split("## The rules")[1]
        table = section.split("\n## ")[0]
        documented = re.findall(r"^\| `([A-Z]+[0-9]+)` \|", table, flags=re.MULTILINE)
        assert sorted(documented) == [rule.rule_id for rule in all_rules()]


class TestRunCheck:
    def test_real_tree_is_clean_with_nothing_suppressed(self):
        report = run_check(root=SRC_ROOT)
        assert report.findings == []
        assert report.ok and report.exit_code == 0
        assert report.rules_run == sorted(_ALL_RULE_IDS)

    def test_no_suppression_file_is_read(self, tmp_path):
        # A file in the old suppression format next to the tree changes
        # nothing: every finding counts.
        root = tmp_path / "tree"
        (root / "repro").mkdir(parents=True)
        (root / "repro" / "stamp.py").write_text(
            "import time\nstamp = time.time()\n"
        )
        for where in (root, tmp_path):
            (where / "analysis-baseline.toml").write_text(
                '[[ignore]]\nrule = "CLK001"\npath = "repro/stamp.py"\n'
                'reason = "ignored"\n'
            )
        report = run_check(root=root)
        assert [f.rule for f in report.findings] == ["CLK001"]
        assert report.exit_code == 1

    def test_a_wall_clock_stamp_in_bench_is_a_finding(self, tmp_path):
        root = tmp_path / "tree"
        shutil.copytree(
            SRC_ROOT / "repro",
            root / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        bench = root / "repro" / "runner" / "bench.py"
        bench.write_text(
            bench.read_text(encoding="utf-8")
            + "\n\ndef _stamp():\n"
            "    from datetime import datetime, timezone\n\n"
            "    return datetime.now(timezone.utc).isoformat()\n",
            encoding="utf-8",
        )
        report = run_check(root=root)
        assert [(f.rule, f.path) for f in report.findings] == [
            ("CLK001", "repro/runner/bench.py")
        ]
        assert report.exit_code == 1

    def test_doctored_tree_fails_per_family(self, doctored_root):
        report = run_check(root=doctored_root)
        assert report.exit_code == 1
        assert {f.rule for f in report.findings} == _ALL_RULE_IDS

    @pytest.mark.parametrize("rule_id", sorted(_ALL_RULE_IDS))
    def test_rule_filter_restricts_the_run(self, doctored_root, rule_id):
        report = run_check(root=doctored_root, rule_filter=[rule_id])
        assert {f.rule for f in report.findings} == {rule_id}
        assert report.rules_run == [rule_id]

    def test_unknown_rule_filter_raises(self):
        with pytest.raises(ConfigurationError, match="NOPE99"):
            run_check(root=SRC_ROOT, rule_filter=["NOPE99"])

    def test_unparseable_module_is_a_parse_finding(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "broken.py").write_text("def oops(:\n")
        report = run_check(root=tmp_path)
        assert [f.rule for f in report.findings if f.rule == "PARSE"] == ["PARSE"]
        assert report.exit_code == 1

    def test_root_without_package_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="repro"):
            run_check(root=tmp_path)

    def test_json_report_round_trips(self):
        report = run_check(root=SRC_ROOT)
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["modules_checked"] == report.modules_checked
        assert sorted(payload) == ["findings", "modules_checked", "ok", "root", "rules"]

    def test_findings_carry_no_severity(self, doctored_root):
        payload = json.loads(run_check(root=doctored_root).to_json())
        assert payload["ok"] is False
        assert {f["rule"] for f in payload["findings"]} == _ALL_RULE_IDS
        assert all(
            sorted(f) == ["context", "line", "message", "path", "rule"]
            for f in payload["findings"]
        )
        assert all(
            line.startswith("error: ")
            for line in run_check(root=doctored_root).to_text().splitlines()[:-2]
        )


class TestDiscoverModules:
    def test_discovers_the_whole_package(self):
        modules, failures = discover_modules(SRC_ROOT)
        assert failures == []
        assert "repro/sim/random.py" in modules
        assert all(rel.startswith("repro/") for rel in modules)
        assert len(modules) > 50
