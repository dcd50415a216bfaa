"""The checker: parse the tree once, run every rule, fold in the baseline.

:func:`run_check` is the whole engine behind ``repro check``: discover the
package's modules under a root directory, parse each exactly once into a
:class:`~repro.analysis.rules.ModuleContext`, run every rule in
:data:`RULES` (module rules per file, project rules over the whole tree),
subtract the justified baseline, and return a :class:`CheckReport` that
renders as human-readable text or machine-readable JSON and owns the
exit-code decision.

Two pseudo-rules exist only here, because they are about the checking
process rather than the checked code:

* ``PARSE`` — a module failed to parse; nothing else about it is checkable.
* ``BASE001`` — a baseline entry matched nothing; stale suppressions are
  errors so the baseline can only shrink or move with the code it excuses.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.baseline import (
    BASELINE_FILENAME,
    BaselineEntry,
    apply_baseline,
    load_baseline,
)
from repro.analysis.clock_rules import (
    UnorderedSetIterationRule,
    UnsortedListingRule,
    WallClockRule,
)
from repro.analysis.findings import Finding, Severity
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


def default_baseline(root: Path) -> Optional[Path]:
    """The baseline committed next to a checked tree, if any.

    Looked up first next to ``root`` itself (a bare package checkout), then
    one level up (the repository root when ``root`` is ``src/``).
    """
    for candidate in (root / BASELINE_FILENAME, root.parent / BASELINE_FILENAME):
        if candidate.is_file():
            return candidate
    return None


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
                    severity=Severity.ERROR,
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
    baseline_path: Optional[Path]
    rules_run: List[str]
    modules_checked: int
    findings: List[Finding]
    suppressed: Dict[BaselineEntry, List[Finding]] = field(default_factory=dict)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def suppressed_count(self) -> int:
        return sum(len(matched) for matched in self.suppressed.values())

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "root": str(self.root),
            "baseline": str(self.baseline_path) if self.baseline_path else None,
            "rules": list(self.rules_run),
            "modules_checked": self.modules_checked,
            "ok": self.ok,
            "findings": [finding.to_json_dict() for finding in self.findings],
            "suppressed": [
                {
                    "rule": entry.rule,
                    "path": entry.path,
                    "context": entry.context,
                    "reason": entry.reason,
                    "matches": len(matched),
                }
                for entry, matched in self.suppressed.items()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(
                f"{finding.severity.value}: {finding.rule} {finding.location}: "
                f"{finding.message}"
            )
        summary = (
            f"repro check: {self.modules_checked} modules, "
            f"{len(self.rules_run)} rules, {len(self.findings)} finding(s)"
        )
        if self.suppressed_count:
            summary += f", {self.suppressed_count} suppressed by baseline"
        lines.append(summary)
        lines.append("OK" if self.ok else "FAILED")
        return "\n".join(lines)


def run_check(
    root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    rule_filter: Optional[Sequence[str]] = None,
) -> CheckReport:
    """Run the determinism checks over one source tree.

    Parameters
    ----------
    root:
        Directory containing the ``repro`` package to check; defaults to
        this installation's own source root.
    baseline_path:
        Baseline file; defaults to the one committed next to ``root``.
    use_baseline:
        ``False`` reports raw findings (CI uses this on doctored trees to
        prove the rules still fire).
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

    suppressed: Dict[BaselineEntry, List[Finding]] = {}
    resolved_baseline: Optional[Path] = None
    if use_baseline:
        resolved_baseline = (
            baseline_path if baseline_path is not None else default_baseline(root)
        )
        entries = load_baseline(resolved_baseline)
        findings, suppressed, unused = apply_baseline(findings, entries)
        if rule_filter:
            # A partial run cannot tell whether an entry for an unexercised
            # rule is stale — only a full run may declare it BASE001.
            ran = {rule.rule_id for rule in rules}
            unused = [entry for entry in unused if entry.rule in ran]
        for entry in unused:
            findings.append(
                Finding(
                    rule="BASE001",
                    severity=Severity.ERROR,
                    path=(
                        resolved_baseline.name
                        if resolved_baseline is not None
                        else BASELINE_FILENAME
                    ),
                    line=0,
                    message=(
                        f"baseline entry {entry.describe()} matches nothing — "
                        "the code it excused is gone, so delete the entry "
                        f"(reason was: {entry.reason})"
                    ),
                    context=entry.describe(),
                )
            )

    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.context))
    return CheckReport(
        root=root,
        baseline_path=resolved_baseline,
        rules_run=[rule.rule_id for rule in rules],
        modules_checked=len(modules),
        findings=findings,
        suppressed=suppressed,
    )


__all__ = [
    "CheckReport",
    "RULES",
    "all_rules",
    "default_baseline",
    "default_root",
    "discover_modules",
    "run_check",
]
