"""Plain-text reporting helpers shared by the experiments and examples."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.exceptions import AnalysisError


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width text table.

    Numbers are formatted with four significant digits; everything else with
    ``str``.  Used by the experiment ``to_text`` methods and by the example
    scripts that print tables of their own.
    """
    header_list = [str(h) for h in headers]
    if not header_list:
        raise AnalysisError("a table needs at least one column")
    formatted_rows: List[List[str]] = []
    for row in rows:
        cells = list(row)
        if len(cells) != len(header_list):
            raise AnalysisError(
                f"row has {len(cells)} cells but the table has {len(header_list)} columns"
            )
        formatted_rows.append([_format_cell(cell) for cell in cells])
    widths = [len(h) for h in header_list]
    for row in formatted_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(header_list)),
        "  ".join("-" * widths[i] for i in range(len(header_list))),
    ]
    for row in formatted_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == 0.0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_interval(bounds) -> str:
    """Render a confidence interval as ``[lower, upper]`` (``-`` when absent).

    Used by the experiment reports for the per-grid-point bootstrap bands of
    multi-seed sweeps; a missing interval (single-seed point) renders as a
    dash so the column stays aligned.
    """
    if bounds is None:
        return "-"
    lower, upper = bounds
    return f"[{_format_cell(float(lower))}, {_format_cell(float(upper))}]"


def seed_suffix(n_seeds: int) -> str:
    """Section-title suffix for aggregated multi-seed reports."""
    return f" (mean of {n_seeds} seeds)" if n_seeds > 1 else ""


def with_ci_column(headers, rows, index, confidence, bounds_for):
    """Splice a bootstrap-CI column into a table at position ``index``.

    ``bounds_for`` maps each original row tuple to its ``(lower, upper)``
    interval (or ``None``).  Shared by the figure reports so the CI-column
    rendering cannot drift between figures.
    """
    new_headers = list(headers)
    new_headers.insert(index, f"ci{confidence:.0%}")
    new_rows = []
    for row in rows:
        cells = list(row)
        cells.insert(index, format_interval(bounds_for(row)))
        new_rows.append(tuple(cells))
    return new_headers, new_rows


def render_experiment_report(title: str, sections: Sequence[tuple]) -> str:
    """Assemble a multi-section text report.

    ``sections`` is a sequence of ``(section_title, body_text)`` pairs; the
    bodies are typically tables from :func:`format_table`.
    """
    if not title:
        raise AnalysisError("report title must be non-empty")
    lines = [title, "=" * len(title), ""]
    for section_title, body in sections:
        lines.append(str(section_title))
        lines.append("-" * len(str(section_title)))
        lines.append(str(body))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


__all__ = [
    "format_interval",
    "format_table",
    "render_experiment_report",
    "seed_suffix",
    "with_ci_column",
]
