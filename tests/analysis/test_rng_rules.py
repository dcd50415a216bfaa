"""Tests for the RNG discipline rules (RNG001-RNG004)."""

from __future__ import annotations

import pytest

from repro.analysis.rng_rules import (
    RNG_HOME,
    LegacyGlobalRngRule,
    StdlibEntropyRule,
    UndeclaredStreamRule,
    UnseededRngRule,
)

from analysis_helpers import load_fixture, load_real_module, make_module, make_tree


class TestUnseededRng:
    def test_good_fixture_is_clean(self):
        assert UnseededRngRule().check_module(load_fixture("rng_good")) == []

    def test_bad_fixture_flags_every_construction(self):
        findings = UnseededRngRule().check_module(load_fixture("rng_bad"))
        contexts = [f.context for f in findings]
        assert "numpy.random.default_rng()" in contexts
        assert "numpy.random.default_rng(seed)" in contexts
        assert "RandomStreams()" in contexts

    def test_rng_home_is_exempt(self):
        module = make_module(
            "import numpy as np\nrng = np.random.default_rng()\n", rel=RNG_HOME
        )
        assert UnseededRngRule().check_module(module) == []

    def test_seeded_randomstreams_is_clean(self):
        module = make_module(
            "from repro.sim.random import RandomStreams\n"
            "streams = RandomStreams(seed=7)\n"
        )
        assert UnseededRngRule().check_module(module) == []


class TestLegacyGlobalRng:
    def test_good_fixture_is_clean(self):
        assert LegacyGlobalRngRule().check_module(load_fixture("rng_good")) == []

    def test_bad_fixture_flags_the_distribution_draw(self):
        findings = LegacyGlobalRngRule().check_module(load_fixture("rng_bad"))
        assert [f.context for f in findings] == ["numpy.random.normal"]

    def test_alias_cannot_hide_the_call(self):
        module = make_module(
            "import numpy.random as npr\nx = npr.uniform(0.0, 1.0)\n"
        )
        findings = LegacyGlobalRngRule().check_module(module)
        assert [f.context for f in findings] == ["numpy.random.uniform"]

    def test_constructors_are_allowed(self):
        module = make_module(
            "import numpy as np\nseq = np.random.SeedSequence(3)\n"
            "gen = np.random.PCG64(seq)\n"
        )
        assert LegacyGlobalRngRule().check_module(module) == []


class TestStdlibEntropy:
    def test_good_fixture_is_clean(self):
        assert StdlibEntropyRule().check_module(load_fixture("rng_good")) == []

    def test_bad_fixture_flags_the_import(self):
        findings = StdlibEntropyRule().check_module(load_fixture("rng_bad"))
        assert any(f.context == "import random" for f in findings)

    @pytest.mark.parametrize(
        "source, context",
        [
            ("import secrets\n", "import secrets"),
            ("from random import shuffle\n", "from random import"),
            ("import os\nos.urandom(8)\n", "os.urandom"),
            ("import uuid\nuuid.uuid4()\n", "uuid.uuid4"),
        ],
    )
    def test_each_entropy_source(self, source, context):
        findings = StdlibEntropyRule().check_module(make_module(source))
        assert [f.context for f in findings] == [context]


class TestUndeclaredStream:
    def _run(self, fixture_name):
        tree = make_tree(
            load_real_module(RNG_HOME), load_fixture(fixture_name)
        )
        return UndeclaredStreamRule().check_project(tree)

    def test_good_fixture_is_clean(self):
        assert self._run("streams_good") == []

    def test_bad_fixture_flags_every_mistake(self):
        findings = self._run("streams_bad")
        contexts = [f.context for f in findings]
        assert "paylaod" in contexts  # literal typo
        assert "gatway-jitter-*" in contexts  # prefix typo in an f-string
        assert "streams.get(<dynamic>)" in contexts  # opaque variable
        assert "*-tail" in contexts  # dynamic prefix
        assert len(findings) == 4

    def test_missing_registry_is_itself_a_finding(self):
        bare_home = make_module("x = 1\n", rel=RNG_HOME)
        tree = make_tree(bare_home, load_fixture("streams_good"))
        findings = UndeclaredStreamRule().check_project(tree)
        assert [f.context for f in findings] == ["DECLARED_STREAMS"]

    def test_absent_home_module_disables_the_rule(self):
        tree = make_tree(load_fixture("streams_bad"))
        assert UndeclaredStreamRule().check_project(tree) == []
