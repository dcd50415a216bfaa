"""Tests for the experiment protocol conformance rule (EXP002)."""

from __future__ import annotations

from repro.analysis.protocol_rules import (
    PROTOCOL_MODULE,
    ExperimentProtocolRule,
    extract_protocol_surface,
)

from analysis_helpers import load_fixture, load_real_module, make_module, make_tree


class TestProtocolSurface:
    def test_surface_is_parsed_from_the_real_protocol(self):
        methods, attrs = extract_protocol_surface(load_real_module(PROTOCOL_MODULE))
        assert methods == {"describe", "cells", "assemble"}
        assert attrs == {"name", "config"}


class TestExperimentProtocol:
    def _run(self, *extra):
        tree = make_tree(load_real_module(PROTOCOL_MODULE), *extra)
        return ExperimentProtocolRule().check_project(tree, root=None)

    def test_good_fixture_is_clean(self):
        extra = load_fixture("protocol_good", rel="repro/api/protocol_good.py")
        assert self._run(extra) == []

    def test_bad_fixture_flags_the_missing_surface(self):
        extra = load_fixture("protocol_bad", rel="repro/api/protocol_bad.py")
        findings = self._run(extra)
        assert len(findings) == 1
        assert findings[0].context == "BrokenExperiment:assemble,cells,config"

    def test_protocol_class_itself_is_not_flagged(self):
        assert self._run() == []

    def test_surface_inherited_from_base_class_counts(self):
        good = load_fixture("protocol_good", rel="repro/api/protocol_good.py")
        child = make_module(
            "from repro.api.protocol_good import GoodExperiment\n"
            "class ChildExperiment(GoodExperiment):\n"
            "    pass\n",
            rel="repro/experiments/child.py",
        )
        assert self._run(good, child) == []

    def test_outside_experiment_packages_is_ignored(self):
        stray = make_module(
            "class StrayExperiment:\n    pass\n", rel="repro/runner/stray.py"
        )
        assert self._run(stray) == []

    def test_missing_protocol_module_disables_the_rule(self):
        extra = load_fixture("protocol_bad", rel="repro/api/protocol_bad.py")
        tree = make_tree(extra)
        assert ExperimentProtocolRule().check_project(tree, root=None) == []
