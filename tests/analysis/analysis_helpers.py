"""Shared helpers for the static-analysis tests (imported, not a conftest).

Fixture source files live in ``tests/analysis/fixtures/`` as real Python
files (never imported — only parsed), one good/bad pair per rule family.
The project rule additionally needs the anchor module it reads its
contract from (``sim/random.py``); tests assemble that from the real
source tree via :func:`make_tree`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Optional

from repro.analysis.rules import ModuleContext

FIXTURES = Path(__file__).parent / "fixtures"

#: The real source tree this repository ships (the default checked root).
SRC_ROOT = Path(__file__).resolve().parents[2] / "src"


def make_module(source: str, rel: str = "repro/experiments/sample.py") -> ModuleContext:
    """A ModuleContext parsed from literal source."""
    return ModuleContext(
        path=Path("/virtual") / rel,
        rel=rel,
        tree=ast.parse(source),
        source=source,
    )


def load_fixture(name: str, rel: Optional[str] = None) -> ModuleContext:
    """A ModuleContext parsed from ``tests/analysis/fixtures/<name>.py``."""
    path = FIXTURES / f"{name}.py"
    source = path.read_text(encoding="utf-8")
    return make_module(source, rel=rel or f"repro/experiments/{name}.py")


def load_real_module(rel: str) -> ModuleContext:
    """A ModuleContext parsed from the repository's own source tree."""
    path = SRC_ROOT / rel
    source = path.read_text(encoding="utf-8")
    return ModuleContext(path=path, rel=rel, tree=ast.parse(source), source=source)


def make_tree(*modules: ModuleContext) -> Dict[str, ModuleContext]:
    """A project-rule input mapping from ModuleContexts."""
    return {module.rel: module for module in modules}
