"""The checker: parse the tree once, run every rule, report every finding.

:func:`run_check` is the whole engine behind ``repro check``: discover the
package's modules under a root directory, parse each exactly once into a
:class:`~repro.analysis.rules.ModuleContext`, run every rule in
:data:`RULES` (module rules per file, project rules over the whole tree),
and return a :class:`CheckReport` that renders as human-readable text or
machine-readable JSON and owns the exit-code decision.  Every finding is an
error; nothing suppresses one — code that breaks a contract changes until it
keeps it.

One pseudo-rule exists only here, because it is about the checking process
rather than the checked code: ``PARSE`` — a module failed to parse, so
nothing else about it is checkable.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.clock_rules import (
    UnorderedSetIterationRule,
    UnsortedListingRule,
    WallClockRule,
)
from repro.analysis.findings import Finding
from repro.analysis.rng_rules import (
    LegacyGlobalRngRule,
    StdlibEntropyRule,
    UndeclaredStreamRule,
    UnseededRngRule,
)
from repro.analysis.rules import AnyRule, ModuleContext, ModuleRule, ProjectRule
from repro.exceptions import ConfigurationError

#: Every rule ``repro check`` runs, one class each; ids must be unique.
RULES: Tuple[Type[AnyRule], ...] = (
    UnseededRngRule,
    LegacyGlobalRngRule,
    StdlibEntropyRule,
    UndeclaredStreamRule,
    WallClockRule,
    UnorderedSetIterationRule,
    UnsortedListingRule,
)

#: Directories never scanned (caches and scratch space inside a tree).
_SKIP_DIRS = frozenset({"__pycache__"})


def all_rules() -> List[AnyRule]:
    """Fresh instances of every rule in :data:`RULES`, sorted by identifier."""
    return sorted((cls() for cls in RULES), key=lambda rule: rule.rule_id)


def default_root() -> Path:
    """The installed package's own source root (the directory holding ``repro/``)."""
    return Path(__file__).resolve().parents[2]


def discover_modules(root: Path) -> Tuple[Dict[str, ModuleContext], List[Finding]]:
    """Parse every ``repro/**/*.py`` under ``root`` exactly once.

    Returns the parsed modules keyed by root-relative POSIX path, plus a
    ``PARSE`` finding per unparseable file.
    """
    package_dir = root / "repro"
    if not package_dir.is_dir():
        raise ConfigurationError(
            f"{root} does not contain a 'repro' package to check "
            "(pass --root pointing at a directory holding repro/)"
        )
    modules: Dict[str, ModuleContext] = {}
    failures: List[Finding] = []
    for path in sorted(package_dir.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in path.parts):
            continue
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            failures.append(
                Finding(
                    rule="PARSE",
                    path=rel,
                    line=exc.lineno or 0,
                    message=f"module does not parse: {exc.msg}",
                    context="syntax-error",
                )
            )
            continue
        modules[rel] = ModuleContext(path=path, rel=rel, tree=tree, source=source)
    return modules, failures


@dataclass
class CheckReport:
    """Everything one check run produced, ready to render."""

    root: Path
    rules_run: List[str]
    modules_checked: int
    findings: List[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "rules": list(self.rules_run),
            "modules_checked": self.modules_checked,
            "ok": self.ok,
            "findings": [finding.to_json_dict() for finding in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [
            f"error: {finding.rule} {finding.location}: {finding.message}"
            for finding in self.findings
        ]
        lines.append(
            f"repro check: {self.modules_checked} modules, "
            f"{len(self.rules_run)} rules, {len(self.findings)} finding(s)"
        )
        lines.append("OK" if self.ok else "FAILED")
        return "\n".join(lines)


def run_check(
    root: Optional[Path] = None,
    rule_filter: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Run the determinism checks over one source tree.

    Parameters
    ----------
    root:
        Directory containing the ``repro`` package to check; defaults to
        this installation's own source root.
    rule_filter:
        Identifiers to restrict the run to; unknown identifiers raise.
    """
    root = (root if root is not None else default_root()).resolve()
    rules = all_rules()
    if rule_filter:
        known = {rule.rule_id for rule in rules}
        unknown = sorted(set(rule_filter) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown rule id(s) {', '.join(unknown)}; "
                f"known rules: {', '.join(sorted(known))}"
            )
        rules = [rule for rule in rules if rule.rule_id in set(rule_filter)]

    modules, findings = discover_modules(root)
    for rule in rules:
        if isinstance(rule, ModuleRule):
            for rel in sorted(modules):
                findings.extend(rule.check_module(modules[rel]))
        elif isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(modules))

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.context))
    return CheckReport(
        root=root,
        rules_run=[rule.rule_id for rule in rules],
        modules_checked=len(modules),
        findings=findings,
    )


__all__ = [
    "CheckReport",
    "RULES",
    "all_rules",
    "default_root",
    "discover_modules",
    "run_check",
]
