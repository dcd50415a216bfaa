"""Tests for the ``repro check`` subcommand."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main

from analysis_helpers import SRC_ROOT


@pytest.fixture
def violation_root(tmp_path):
    """A copy of the real package with one seeded RNG violation."""
    root = tmp_path / "tree"
    shutil.copytree(
        SRC_ROOT / "repro",
        root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (root / "repro" / "experiments" / "cli_bad.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    return root


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(" 7 rules, 0 finding(s)\nOK\n")
        assert "suppressed" not in out

    def test_violations_exit_one(self, violation_root, capsys):
        assert main(["check", "--root", str(violation_root)]) == 1
        out = capsys.readouterr().out
        assert "RNG001" in out and "FAILED" in out

    def test_json_format_is_machine_readable(self, capsys):
        assert main(["check", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_json_format_carries_findings(self, violation_root, capsys):
        code = main(
            ["check", "--root", str(violation_root), "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert any(f["rule"] == "RNG001" for f in payload["findings"])

    def test_list_rules_prints_the_registry(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RNG001", "RNG002", "RNG003", "RNG004", "CLK001", "ORD001", "ORD002"):
            assert rule_id in out

    def test_rule_filter(self, violation_root, capsys):
        code = main(
            ["check", "--root", str(violation_root), "--rule", "ORD002"]
        )
        assert code == 0  # only the RNG violation was seeded
        capsys.readouterr()

    @pytest.mark.parametrize("option", [["--no-baseline"], ["--baseline", "x.toml"]])
    def test_suppression_options_are_gone(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["check", "--rule", "NOPE99"]) == 2
        assert "NOPE99" in capsys.readouterr().err
