"""Findings: what an analysis rule reports.

A :class:`Finding` is one violation of one rule at one source location.  It
is deliberately a plain value object — rules produce findings, the checker
collects them, and the CLI renders them as human-readable text or
machine-readable JSON.  Every finding is an error: a determinism contract
that only warns is not enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        The rule identifier, e.g. ``"RNG001"``.
    path:
        POSIX path of the offending file, relative to the checked root
        (e.g. ``"repro/stats/bootstrap.py"``).
    line:
        1-based source line, or 0 for file- or project-level findings.
    message:
        Human-readable description of the violation and what to do instead.
    context:
        The offending construct (a call spelling, a stream name, a field
        name); it orders findings that share a line.
    """

    rule: str
    path: str
    line: int
    message: str
    context: str = ""

    @property
    def location(self) -> str:
        """``path:line`` (or just ``path`` for file-level findings)."""
        return f"{self.path}:{self.line}" if self.line else self.path

    def to_json_dict(self) -> Dict[str, Any]:
        """The finding as plain JSON-able data."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
        }


__all__ = ["Finding"]
