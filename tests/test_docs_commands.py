"""Every ``repro`` command quoted in the docs parses at HEAD.

Each fenced line of ``README.md`` and ``docs/*.md`` that runs ``repro`` (or
``python -m repro``) is checked against :func:`repro.cli.build_parser`.
Lines ending in ``\\`` are joined with the next.  Usage synopses
(``[--preset paper|fast]``) and labels inside box-drawn diagrams are not
commands and are skipped.  The commands without side effects
(``--version``, ``list``, ``check``) are also run in-process from the repo
root, since argparse accepts values (a ``check --rule`` id, a ``--root``
path) that the command itself then refuses with exit status 2.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: A command line: environment assignments, an optional ``python [opts] -m``,
#: then ``repro`` and its argv.
COMMAND = re.compile(
    r"^(?:[A-Z_]+=\S+\s+)*(?:python3?\s+(?:-\S+\s+\S+\s+)*-m\s+)?repro\s+(?P<argv>.*)$"
)
DIAGRAM = re.compile("[│▼├└─]")


def fenced_blocks(text: str) -> List[List[Tuple[int, str]]]:
    """Each fenced block's lines with their line numbers, ``\\`` joins applied."""
    blocks: List[List[Tuple[int, str]]] = []
    inside = False
    pending = ""
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip().startswith("```"):
            inside = not inside
            if inside:
                blocks.append([])
            continue
        if not inside:
            continue
        line = f"{pending} {line.strip()}" if pending else line.strip()
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            continue
        pending = ""
        blocks[-1].append((number, line))
    return blocks


def documented_commands() -> List[Tuple[str, List[str]]]:
    """``(file:line, argv)`` of every fenced ``repro`` command in the docs."""
    commands = []
    for path in DOCS:
        for block in fenced_blocks(path.read_text(encoding="utf-8")):
            if any(DIAGRAM.search(line) for _, line in block):
                continue
            for number, line in block:
                match = COMMAND.match(line)
                if match is None:
                    continue
                argv = shlex.split(match["argv"], comments=True)
                if any("[" in arg or "|" in arg for arg in argv):
                    continue
                commands.append((f"{path.relative_to(ROOT)}:{number}", argv))
    return commands


COMMANDS = documented_commands()

#: Leading arguments of the documented commands that only read.
SIDE_EFFECT_FREE = ("--version", "list", "check")

RUNNABLE = [(where, argv) for where, argv in COMMANDS if argv[0] in SIDE_EFFECT_FREE]


def test_the_docs_quote_commands():
    """Exact: a fenced block of commands that gains a box character is
    skipped whole, and must fail here rather than go unchecked."""
    assert len(COMMANDS) == 49


@pytest.mark.parametrize("argv", [argv for _, argv in COMMANDS], ids=[i for i, _ in COMMANDS])
def test_documented_command_parses(argv):
    build_parser().parse_args(argv)


def test_the_docs_quote_runnable_commands():
    assert len(RUNNABLE) == 9


@pytest.mark.parametrize("argv", [argv for _, argv in RUNNABLE], ids=[i for i, _ in RUNNABLE])
def test_documented_command_runs(argv, monkeypatch, capsys):
    """Exit status 2 is a usage error; 0 and 1 (``check`` findings) are not."""
    monkeypatch.chdir(ROOT)
    try:
        status = main(argv)
    except SystemExit as exc:  # argparse's --version and usage errors
        status = exc.code
    assert status != 2, capsys.readouterr().err
