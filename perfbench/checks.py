"""Output checks of one benchmark invocation, counted per cell.

A cell fails if its invocation raised or exited non-zero, if it is missing
from the report, or if the report fails the workload's output check:

- equal, byte for byte apart from the ``sweep summary:`` line, to the
  run's reference report (the first invocation of the run; for
  ``sweep-warm`` the cold run that filled the store);
- for the pinned seed, equal to the digest kept in ``digests.json``;
- for ``sweep-warm``, every cell a cache hit and the store files unchanged.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SUMMARY_PREFIX = "sweep summary:"
_SUMMARY = re.compile(r"sweep summary: (\d+) cells, (\d+) simulated, (\d+) cache hits")


def strip_summary(report: str) -> str:
    """The report without its ``sweep summary:`` accounting line."""
    return "\n".join(
        line for line in report.splitlines() if not line.startswith(SUMMARY_PREFIX)
    )


def digest(report: str) -> str:
    return hashlib.sha256(strip_summary(report).encode("utf-8")).hexdigest()


def summary_counts(report: str) -> Optional[Tuple[int, int, int]]:
    """(cells, simulated, cache hits) from the summary line, if present."""
    match = _SUMMARY.search(report)
    return tuple(int(group) for group in match.groups()) if match else None


def store_snapshot(root: Path) -> Dict[str, str]:
    """Content hash of every file under a results store."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def check_invocation(
    result: Dict[str, Any],
    *,
    expected: int,
    reference: Optional[str],
    pinned_digest: Optional[str],
    point_keys: Sequence[str] = (),
    warm: bool = False,
    store_before: Optional[Dict[str, str]] = None,
    store_after: Optional[Dict[str, str]] = None,
) -> Tuple[int, List[str]]:
    """(failed cells, problems) for one invocation's child result, which
    should have reported ``expected`` cells and every one of ``point_keys``."""
    report = result["report"]
    problems: List[str] = []
    if result["error"] is not None:
        problems.append(f"raised {result['error']}")
    elif result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    if reference is not None and strip_summary(report) != strip_summary(reference):
        problems.append("report differs from the run's reference report")
    if pinned_digest is not None and digest(report) != pinned_digest:
        problems.append(f"report digest {digest(report)} differs from digests.json")
    missing_points = [key for key in point_keys if key not in report]
    if missing_points:
        problems.append(f"grid points missing from the report: {missing_points}")
    counts = summary_counts(report)
    if warm and counts is not None and counts[1] != 0:
        problems.append(f"warm sweep simulated {counts[1]} cells")
    if store_before is not None and store_before != store_after:
        problems.append("store files changed during a warm sweep")
    if problems:
        return expected, problems
    reported = counts[0] if counts is not None else 0
    if reported != expected:
        return max(expected - reported, 1), [f"{reported} cells reported, {expected} expected"]
    return 0, []
