"""Test reports: execution results as text (the machine-readable document
is :func:`repro.teststand.serialize.result_to_dict`)."""

from __future__ import annotations

from typing import Iterable

from .verdict import TestResult

__all__ = ["format_table", "text_report", "summary_line", "campaign_summary"]


def format_table(header: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    """Render a simple aligned text table (used throughout reports and benches)."""
    header_cells = [str(cell) for cell in header]
    body = [[str(cell) for cell in row] for row in rows]
    widths = [len(cell) for cell in header_cells]
    for row in body:
        while len(widths) < len(row):
            widths.append(0)
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    widths = [max(width, len(cell)) for width, cell in
              zip(widths, header_cells + [""] * (len(widths) - len(header_cells)))]

    def render_row(cells: list[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines = [render_row(header_cells + [""] * (len(widths) - len(header_cells))), separator]
    lines.extend(render_row(row + [""] * (len(widths) - len(row))) for row in body)
    return "\n".join(lines)


def summary_line(result: TestResult) -> str:
    """One-line summary of a test run."""
    counts = result.counts()
    return (
        f"{result.script.name} on {result.stand}: {result.verdict} "
        f"({len(result.steps)} steps, {counts['pass']} pass / {counts['fail']} fail / "
        f"{counts['error']} error, {result.duration:g} s simulated, "
        f"{result.wall_time * 1e3:.1f} ms wall)"
    )


def text_report(result: TestResult, *, verbose: bool = True) -> str:
    """Full text report of one test run."""
    lines = [
        f"Test report: {result.script.name}",
        f"  DUT        : {result.script.dut}",
        f"  Test stand : {result.stand}",
        f"  Verdict    : {result.verdict}",
        f"  Steps      : {len(result.steps)}",
        f"  Simulated  : {result.duration:g} s",
        f"  Wall time  : {result.wall_time * 1e3:.1f} ms",
        f"  Resources  : {', '.join(result.resources_used()) or '-'}",
        "",
    ]
    if result.setup:
        lines.append("Setup:")
        for action in result.setup:
            lines.append(f"  {action.describe()}")
        lines.append("")
    header = ("step", "dt [s]", "verdict", "actions", "remark")
    rows = []
    for step in result.steps:
        rows.append((
            str(step.number),
            f"{step.duration:g}",
            str(step.verdict),
            str(len(step.actions)),
            step.remark,
        ))
    lines.append(format_table(header, rows))
    if verbose:
        lines.append("")
        for step in result.steps:
            lines.append(f"Step {step.number} ({step.verdict}):")
            for action in step.actions:
                lines.append(f"  {action.describe()}")
    return "\n".join(lines)


def campaign_summary(results: Iterable[TestResult]) -> str:
    """Summary table over many runs (several scripts and/or several stands)."""
    header = ("script", "stand", "verdict", "steps", "pass", "fail", "error")
    rows = []
    for result in results:
        counts = result.counts()
        rows.append((
            result.script.name,
            result.stand,
            str(result.verdict),
            str(len(result.steps)),
            str(counts["pass"]),
            str(counts["fail"]),
            str(counts["error"]),
        ))
    return format_table(header, rows)
