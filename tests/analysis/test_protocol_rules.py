"""Tests for the experiment protocol conformance rules (EXP001, EXP002)."""

from __future__ import annotations

from repro.analysis.protocol_rules import (
    PROTOCOL_MODULE,
    ExperimentProtocolRule,
    RegisteredDefinitionRule,
    extract_protocol_surface,
)

from analysis_helpers import load_fixture, load_real_module, make_module, make_tree


class TestProtocolSurface:
    def test_surface_is_parsed_from_the_real_protocol(self):
        methods, attrs = extract_protocol_surface(load_real_module(PROTOCOL_MODULE))
        assert methods == {"describe", "cells", "assemble"}
        assert attrs == {"name", "config"}


class TestRegisteredDefinition:
    def test_good_fixture_is_clean(self):
        tree = make_tree(load_fixture("protocol_good", rel="repro/api/protocol_good.py"))
        assert RegisteredDefinitionRule().check_project(tree, root=None) == []

    def test_bad_fixture_flags_the_missing_members(self):
        tree = make_tree(load_fixture("protocol_bad", rel="repro/api/protocol_bad.py"))
        findings = RegisteredDefinitionRule().check_project(tree, root=None)
        assert len(findings) == 1
        assert findings[0].context == "HalfBakedDefinition:build,preset_config"

    def test_inherited_stubs_do_not_satisfy(self):
        source = (
            "from repro.api.registry import ExperimentDefinition, register_experiment\n"
            "@register_experiment('empty')\n"
            "class EmptyDefinition(ExperimentDefinition):\n"
            "    pass\n"
        )
        tree = make_tree(make_module(source, rel="repro/api/empty.py"))
        findings = RegisteredDefinitionRule().check_project(tree, root=None)
        assert len(findings) == 1
        assert "config_cls" in findings[0].context

    def test_members_inherited_from_real_base_count(self):
        base = (
            "from repro.api.registry import ExperimentDefinition\n"
            "class SharedBase(ExperimentDefinition):\n"
            "    config_cls = dict\n"
            "    def preset_config(self, preset, seed):\n"
            "        return {}\n"
            "    def build(self, config):\n"
            "        return config\n"
        )
        child = (
            "from repro.api.registry import register_experiment\n"
            "from repro.api.shared import SharedBase\n"
            "@register_experiment('derived')\n"
            "class DerivedDefinition(SharedBase):\n"
            "    pass\n"
        )
        tree = make_tree(
            make_module(base, rel="repro/api/shared.py"),
            make_module(child, rel="repro/api/derived.py"),
        )
        assert RegisteredDefinitionRule().check_project(tree, root=None) == []


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
