"""Every call the benchmark's tracer wraps still exists under its name.

``perfbench/tracer.py`` wraps the public calls listed in its
``SPAN_TARGETS`` and ``COUNT_TARGETS`` tables, by module and attribute
path, and looks each one up in its owner's ``__dict__``.  A renamed or
deleted target crashes every traced benchmark run, so these tests resolve
each entry the same way.  The tables are read from the tracer's source
text: nothing under ``perfbench/`` is imported or changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TABLE_NAMES = ("SPAN_TARGETS", "COUNT_TARGETS")


def read_tables() -> dict:
    """``{table name: ((module, attribute path, metric), ...)}`` from the source."""
    tables = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if node.target.id in TABLE_NAMES:
                tables[node.target.id] = ast.literal_eval(node.value)
    return tables


TABLES = read_tables()
TARGETS = [
    pytest.param(module, path, id=f"{table}:{module}.{path}")
    for table, rows in TABLES.items()
    for module, path, _metric in rows
]


def test_both_tables_are_found():
    assert sorted(TABLES) == sorted(TABLE_NAMES)
    assert all(len(rows) > 0 for rows in TABLES.values())


@pytest.mark.parametrize("module, path", TARGETS)
def test_target_resolves_to_a_callable_of_its_owner(module, path):
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    # Looked up in the owner itself, as the tracer does: an inherited
    # method would not be found there.
    assert attribute in vars(owner), f"{module}.{path} is gone"
    assert callable(vars(owner)[attribute])
