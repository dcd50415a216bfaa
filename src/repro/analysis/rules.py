"""The rule base classes and the AST plumbing every rule shares.

A rule is a small class with an identifier, a title, and a ``check``
method producing :class:`~repro.analysis.findings.Finding` objects.  Two
granularities exist:

* :class:`ModuleRule` — sees one parsed module at a time (RNG calls,
  wall-clock calls, unordered iteration).
* :class:`ProjectRule` — sees the whole parsed tree at once (the
  declared-stream registry), for contracts that span files.

The rule table is ``RULES`` in :mod:`repro.analysis.checker`; the checker
runs every rule in it unless told otherwise.  That tuple is the single
source of the rule table in ``docs/determinism.md`` — ``repro check
--list-rules`` renders it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.analysis.findings import Finding


@dataclass
class ModuleContext:
    """One parsed source module, with the lookups rules need precomputed."""

    path: Path
    rel: str  # POSIX path relative to the checked root, e.g. "repro/sim/engine.py"
    tree: ast.Module
    source: str
    _imports: Optional[Dict[str, str]] = field(default=None, repr=False)
    _parents: Optional[Dict[int, ast.AST]] = field(default=None, repr=False)

    @property
    def imports(self) -> Dict[str, str]:
        """Local name -> fully qualified dotted name, from the import statements.

        ``import numpy as np`` maps ``np`` to ``numpy``; ``from datetime
        import datetime`` maps ``datetime`` to ``datetime.datetime``.  Rules
        resolve call targets through this table so aliasing cannot hide a
        banned call.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        table[local] = alias.name if alias.asname else local
                        if alias.asname:
                            table[alias.asname] = alias.name
                elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                    for alias in node.names:
                        local = alias.asname or alias.name
                        table[local] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    @property
    def parents(self) -> Dict[int, ast.AST]:
        """``id(node)`` -> parent node, for rules that look outward."""
        if self._parents is None:
            table: Dict[int, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    table[id(child)] = node
            self._parents = table
        return self._parents

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        """Ancestors of ``node``, innermost first."""
        current = self.parents.get(id(node))
        while current is not None:
            yield current
            current = self.parents.get(id(current))

    def qualified_call(self, node: ast.Call) -> str:
        """Dotted name of a call target, resolved through the import table.

        ``np.random.default_rng(...)`` -> ``"numpy.random.default_rng"``;
        unresolvable targets (method calls on computed objects) return the
        unresolved attribute tail like ``".get"`` so rules can still match
        on method names.
        """
        return resolve_name(node.func, self.imports)


def resolve_name(node: ast.AST, imports: Dict[str, str]) -> str:
    """Resolve a Name/Attribute chain to a dotted name, through imports."""
    parts: List[str] = []
    current: ast.AST = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        base = imports.get(current.id, current.id)
        parts.append(base)
        return ".".join(reversed(parts))
    # Computed receiver (call result, subscript, self.x, ...): keep the
    # attribute tail with a leading dot so rules can match method names.
    return "." + ".".join(reversed(parts)) if parts else ""


class Rule:
    """Base class: identifier and the one-line contract."""

    #: Unique identifier, e.g. ``"RNG001"``.  Families group by prefix.
    rule_id: str = ""
    #: One-line statement of the enforced contract (docs and --list-rules).
    title: str = ""

    def finding(
        self, rel: str, line: int, message: str, context: str = ""
    ) -> Finding:
        """Convenience constructor stamped with this rule's id."""
        return Finding(
            rule=self.rule_id,
            path=rel,
            line=line,
            message=message,
            context=context,
        )


class ModuleRule(Rule):
    """A rule evaluated one module at a time."""

    def check_module(self, module: ModuleContext) -> List[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that needs the whole parsed tree (cross-file contracts)."""

    def check_project(self, modules: Dict[str, ModuleContext]) -> List[Finding]:
        raise NotImplementedError


AnyRule = Union[ModuleRule, ProjectRule]


__all__ = [
    "AnyRule",
    "ModuleContext",
    "ModuleRule",
    "ProjectRule",
    "Rule",
    "resolve_name",
]
