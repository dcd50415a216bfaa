"""Every registered experiment's report is pinned byte for byte.

Each case runs the CLI in-process and compares stdout with a text file under
``tests/fixtures/reports``.  A registered experiment runs ``--preset smoke``
at seed 2003 twice: with one seed (``NAME.txt``) and with ``--seeds 2 --ci``
(``NAME-ci.txt``); ``wan_smoke.txt`` and ``wan_smoke-ci.txt`` are the
scenario file's reports in the same two shapes.

The fixtures change only when a report is meant to change.  Regenerate one
by writing the CLI's stdout for the same arguments over it, and say why in
the change log.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import list_experiments
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
REPORTS = REPO / "tests" / "fixtures" / "reports"

SMOKE = ["--preset", "smoke", "--seed", "2003"]
WAN_SMOKE = str(REPO / "examples" / "scenarios" / "wan_smoke.toml")

CASES = [
    pytest.param(["run", name, *SMOKE], f"{name}.txt", id=name)
    for name in list_experiments()
] + [
    pytest.param(
        ["run", name, *SMOKE, "--seeds", "2", "--ci"], f"{name}-ci.txt", id=f"{name}-ci"
    )
    for name in list_experiments()
] + [
    pytest.param(["run", "--scenario", WAN_SMOKE], "wan_smoke.txt", id="wan_smoke"),
    pytest.param(
        ["run", "--scenario", WAN_SMOKE, "--seeds", "2", "--ci"],
        "wan_smoke-ci.txt",
        id="wan_smoke-ci",
    ),
]


def test_every_registered_experiment_has_both_fixtures():
    names = {path.name for path in REPORTS.glob("*.txt")}
    expected = {f"{name}{suffix}.txt" for name in list_experiments() for suffix in ("", "-ci")}
    assert names == expected | {"wan_smoke.txt", "wan_smoke-ci.txt"}


@pytest.mark.parametrize("argv, fixture", CASES)
def test_report_bytes_are_pinned(argv, fixture, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (REPORTS / fixture).read_text()
