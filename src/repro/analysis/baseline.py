"""The analysis baseline: every suppressed finding is explicit and justified.

A clean tree is the goal, but some findings are deliberate — the bench
harness stamps artifact metadata with the wall clock.  Those exceptions live
in one committed TOML file (``analysis-baseline.toml`` at the repository
root), one ``[[ignore]]`` entry each, with a *required* justification:

.. code-block:: toml

    [[ignore]]
    rule = "CLK001"
    path = "repro/runner/bench.py"
    context = "datetime.datetime.now"
    reason = "timestamps bench artifact metadata only; never fingerprinted"

Matching is by rule + path + ``context`` substring — never by line number,
so entries survive unrelated edits.  An entry that matches nothing is
itself an error: stale suppressions rot into blind spots, so the checker
makes you delete them the moment the offending code is gone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.exceptions import ConfigurationError

try:  # Python 3.11+; 3.10 installs the tomli backport (see pyproject.toml).
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on Python 3.10
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None

#: Default baseline filename, looked up next to the checked tree's root.
BASELINE_FILENAME = "analysis-baseline.toml"


@dataclass(frozen=True)
class BaselineEntry:
    """One justified suppression.

    Attributes
    ----------
    rule:
        The rule identifier the entry suppresses (exact match).
    path:
        POSIX path relative to the checked root (exact match).
    context:
        Substring the finding's ``context`` must contain; empty matches any
        finding of the rule in the file.
    reason:
        Why the violation is acceptable.  Required and non-empty — an
        unexplained suppression is indistinguishable from a mistake.
    """

    rule: str
    path: str
    context: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        return (
            finding.rule == self.rule
            and finding.path == self.path
            and (not self.context or self.context in finding.context)
        )

    def describe(self) -> str:
        suffix = f" [{self.context}]" if self.context else ""
        return f"{self.rule} at {self.path}{suffix}"


def load_baseline(path: Optional[Path]) -> List[BaselineEntry]:
    """Parse a baseline file; a missing path means an empty baseline."""
    if path is None or not path.is_file():
        return []
    if _toml is None:  # pragma: no cover - Python 3.10 without tomli
        raise ConfigurationError(
            f"reading {path} needs Python >= 3.11 (tomllib) or the 'tomli' "
            "package; run the check with --no-baseline instead"
        )
    try:
        with path.open("rb") as handle:
            data = _toml.load(handle)
    except _toml.TOMLDecodeError as exc:
        raise ConfigurationError(
            f"baseline file {path} is not valid TOML: {exc}"
        ) from exc
    entries_raw = data.get("ignore", [])
    if not isinstance(entries_raw, list):
        raise ConfigurationError(
            f"baseline file {path}: 'ignore' must be an array of tables "
            "([[ignore]] entries)"
        )
    entries: List[BaselineEntry] = []
    for position, raw in enumerate(entries_raw, start=1):
        entries.append(_parse_entry(path, position, raw))
    return entries


def _parse_entry(path: Path, position: int, raw: Any) -> BaselineEntry:
    if not isinstance(raw, dict):
        raise ConfigurationError(
            f"baseline file {path}: [[ignore]] entry {position} is not a table"
        )
    unknown = sorted(set(raw) - {"rule", "path", "context", "reason"})
    if unknown:
        raise ConfigurationError(
            f"baseline file {path}: entry {position} has unknown keys "
            f"{', '.join(unknown)} (allowed: rule, path, context, reason)"
        )
    rule = raw.get("rule")
    rel = raw.get("path")
    reason = raw.get("reason")
    context = raw.get("context", "")
    for key, value in (("rule", rule), ("path", rel), ("reason", reason)):
        if not isinstance(value, str) or not value.strip():
            raise ConfigurationError(
                f"baseline file {path}: entry {position} needs a non-empty "
                f"string {key!r} — every suppression states what it hides "
                "and why"
            )
    if not isinstance(context, str):
        raise ConfigurationError(
            f"baseline file {path}: entry {position}: 'context' must be a string"
        )
    assert isinstance(rule, str) and isinstance(rel, str) and isinstance(reason, str)
    return BaselineEntry(
        rule=rule.strip(), path=rel.strip(), context=context.strip(), reason=reason.strip()
    )


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[BaselineEntry]
) -> Tuple[List[Finding], Dict[BaselineEntry, List[Finding]], List[BaselineEntry]]:
    """Split findings into (surviving, suppressed-by-entry, unused entries).

    Every unused entry is a stale suppression the caller must report as an
    error — baselines only shrink or change with the code they excuse.
    """
    suppressed: Dict[BaselineEntry, List[Finding]] = {entry: [] for entry in entries}
    surviving: List[Finding] = []
    for finding in findings:
        matched = False
        for entry in entries:
            if entry.matches(finding):
                suppressed[entry].append(finding)
                matched = True
                break
        if not matched:
            surviving.append(finding)
    unused = [entry for entry in entries if not suppressed[entry]]
    return surviving, suppressed, unused


__all__ = [
    "BASELINE_FILENAME",
    "BaselineEntry",
    "apply_baseline",
    "load_baseline",
]
