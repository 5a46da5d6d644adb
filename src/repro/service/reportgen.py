"""Static HTML report generator for the persistent result store.

Renders a self-contained site (no JavaScript, no external assets) from a
:class:`~repro.store.ResultStore`:

``index.html``
    run index - one row per recorded run, newest first, linking the pages.
``run-<id>.html``
    per-run page: provenance metadata, the campaign fault table, a
    detection-coverage matrix (fault group x test sheet, one verdict cell
    per executed job) and the raw per-job verdict table.
``diff-<a>-vs-<b>.html``
    run-vs-run diff page with the per-sheet verdict deltas; generated for
    consecutive runs of the same DUT (and on request through
    :func:`write_diff_page`).

Exposed through ``repro-report --store PATH --html DIR`` and meant for
"publish the campaign history" CI artifacts; the JSON API
(:mod:`repro.service.api`) serves the same data to programs.
"""

from __future__ import annotations

import html
import os
from typing import Sequence

from ..analysis.campaign import BASELINE_GROUP
from ..store import ResultStore, RunDiff, StoredRun

__all__ = ["generate_site", "write_run_page", "write_diff_page"]

_STYLE = """
body { font-family: sans-serif; margin: 2rem; color: #1c1c1c; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #c8c8c8; padding: 0.3rem 0.6rem;
         text-align: left; font-size: 0.9rem; }
th { background: #f0f0f0; }
td.pass { background: #e3f4e3; }
td.fail { background: #f9e0e0; font-weight: 600; }
td.error { background: #f3d9b8; font-weight: 600; }
td.skipped { background: #ececec; }
pre { background: #f7f7f7; border: 1px solid #ddd; padding: 0.8rem;
      overflow-x: auto; font-size: 0.85rem; }
.meta td:first-child { background: #f0f0f0; font-weight: 600; }
footer { margin-top: 2rem; color: #777; font-size: 0.8rem; }
"""


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        "<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_STYLE}</style>\n</head>\n<body>\n"
        f"{body}\n"
        "<footer>generated by repro-report from the persistent result "
        "store</footer>\n</body>\n</html>\n"
    )


def _verdict_cell(verdict: str) -> str:
    cls = html.escape(verdict.lower())
    return f'<td class="{cls}">{html.escape(verdict.upper())}</td>'


def _meta_table(rows: Sequence[tuple[str, str]]) -> str:
    cells = "\n".join(
        f"<tr><td>{html.escape(key)}</td><td>{html.escape(value)}</td></tr>"
        for key, value in rows
    )
    return f'<table class="meta">\n{cells}\n</table>'


def _fault_table(result) -> str:
    rows = []
    for outcome in result.outcomes:
        failing = ", ".join(outcome.failing_tests) or "-"
        rows.append(
            "<tr>"
            f"<td>{html.escape(outcome.fault.name)}</td>"
            f"{_verdict_cell('pass' if outcome.detected else 'fail')}"
            f"<td>{'yes' if outcome.fault.expected_detected else 'no'}</td>"
            f"<td>{html.escape(failing)}</td>"
            f"<td>{html.escape(outcome.fault.description)}</td>"
            "</tr>"
        )
    return (
        "<table>\n<tr><th>fault</th><th>detected</th><th>expected</th>"
        "<th>failing tests</th><th>description</th></tr>\n"
        + "\n".join(rows) + "\n</table>"
    )


def _coverage_matrix(report) -> str:
    """Fault-group x test-sheet verdict matrix (the detection coverage)."""
    by_group = report.by_group()
    sheets: list[str] = []
    for job_result in report.results:
        name = job_result.job.script.name
        if name not in sheets:
            sheets.append(name)
    header = "<tr><th>group \\ sheet</th>" + "".join(
        f"<th>{html.escape(name)}</th>" for name in sheets) + "</tr>"
    rows = []
    for group, job_results in by_group.items():
        verdicts = {}
        for job_result in job_results:
            verdicts[job_result.job.script.name] = job_result.verdict.value
        label = html.escape(group or "-")
        if group == BASELINE_GROUP:
            label = f"<em>{label}</em>"
        cells = "".join(
            _verdict_cell(verdicts[name]) if name in verdicts else "<td>-</td>"
            for name in sheets
        )
        rows.append(f"<tr><th>{label}</th>{cells}</tr>")
    return "<table>\n" + header + "\n" + "\n".join(rows) + "\n</table>"


def write_run_page(run: StoredRun, path: str) -> None:
    """Write one run's HTML page (metadata, fault table, coverage, jobs)."""
    report = run.execution_report()
    meta = [
        ("run", str(run.run_id)),
        ("DUT", run.dut or "-"),
        ("stand", (run.campaign or {}).get("stand") or "(default)"),
        ("backend", f"{run.backend} ({run.workers} worker(s))"),
        ("wall time", f"{run.wall_time:.3f} s"),
        ("recorded", f"{run.created_at:.0f} (unix)"),
        ("git SHA", run.git_sha or "-"),
        ("repro version", run.repro_version),
    ]
    sections = [f"<h1>Run {run.run_id}</h1>", _meta_table(meta)]
    if run.catalogue is not None:
        result = run.campaign_result()
        sections.append("<h2>Fault campaign</h2>")
        sections.append(f"<p>{html.escape(result.summary())}</p>")
        sections.append(_fault_table(result))
    sections.append("<h2>Detection coverage</h2>")
    sections.append(
        "<p>One cell per executed (fault group &#215; test sheet) job; the "
        "<em>baseline</em> row is the healthy ECU.</p>")
    sections.append(_coverage_matrix(report))
    sections.append("<h2>Per-job verdicts</h2>")
    sections.append(f"<pre>{html.escape(report.verdict_table())}\n"
                    f"{html.escape(report.summary())}</pre>")
    sections.append('<p><a href="index.html">&#8592; run index</a></p>')
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(_page(f"repro run {run.run_id}", "\n".join(sections)))


def write_diff_page(diff: RunDiff, path: str) -> None:
    """Write a run-vs-run diff page (per-sheet verdict deltas)."""
    sections = [f"<h1>Run {diff.run_a} vs run {diff.run_b}</h1>"]
    sections.append(f"<p>{html.escape(diff.summary())}</p>")
    if diff.empty:
        sections.append("<p>The two runs carry identical per-sheet "
                        "verdicts.</p>")
    else:
        rows = [
            "<tr>"
            f"<td>{html.escape(delta.job)}</td>"
            f"{_verdict_cell(delta.verdict_a)}{_verdict_cell(delta.verdict_b)}"
            "</tr>"
            for delta in diff.changed
        ]
        rows.extend(
            f"<tr><td>{html.escape(job)}</td><td>-</td><td>(missing)</td></tr>"
            for job in diff.only_a
        )
        rows.extend(
            f"<tr><td>{html.escape(job)}</td><td>(missing)</td><td>-</td></tr>"
            for job in diff.only_b
        )
        sections.append(
            "<table>\n"
            f"<tr><th>job</th><th>run {diff.run_a}</th>"
            f"<th>run {diff.run_b}</th></tr>\n"
            + "\n".join(rows) + "\n</table>"
        )
    sections.append(
        f'<p><a href="run-{diff.run_a}.html">run {diff.run_a}</a> &#183; '
        f'<a href="run-{diff.run_b}.html">run {diff.run_b}</a> &#183; '
        '<a href="index.html">run index</a></p>'
    )
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(_page(
            f"repro diff {diff.run_a} vs {diff.run_b}", "\n".join(sections)))


def generate_site(store: ResultStore, out_dir: str) -> list[str]:
    """Render the whole store into *out_dir*; returns the written paths.

    One page per run, one diff page per consecutive pair of runs of the
    same DUT (oldest to newest), and the linking index.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    infos = store.list_runs()
    for info in infos:
        run = store.get_run(info.run_id)
        path = os.path.join(out_dir, f"run-{info.run_id}.html")
        write_run_page(run, path)
        written.append(path)
    # Consecutive same-DUT pairs, oldest first, so every revision links to
    # its predecessor's delta.
    diffs: list[RunDiff] = []
    by_dut: dict[str, list] = {}
    for info in reversed(infos):
        by_dut.setdefault(info.dut.lower(), []).append(info)
    for runs in by_dut.values():
        for earlier, later in zip(runs, runs[1:]):
            diff = store.diff_runs(earlier.run_id, later.run_id)
            path = os.path.join(
                out_dir, f"diff-{earlier.run_id}-vs-{later.run_id}.html")
            write_diff_page(diff, path)
            written.append(path)
            diffs.append(diff)
    rows = []
    for info in infos:
        rows.append(
            "<tr>"
            f'<td><a href="run-{info.run_id}.html">{info.run_id}</a></td>'
            f"<td>{html.escape(info.dut or '-')}</td>"
            f"<td>{html.escape(info.backend)}</td>"
            f"<td>{info.jobs}</td>"
            f"{_verdict_cell(info.verdict)}"
            f"<td>{html.escape(info.repro_version)}</td>"
            f"<td>{html.escape(info.git_sha[:12] or '-')}</td>"
            "</tr>"
        )
    body = [
        "<h1>Campaign run index</h1>",
        f"<p>{len(infos)} recorded run(s), newest first.</p>",
        "<table>\n<tr><th>run</th><th>DUT</th><th>backend</th><th>jobs</th>"
        "<th>verdict</th><th>version</th><th>git</th></tr>\n"
        + "\n".join(rows) + "\n</table>",
    ]
    if diffs:
        items = "\n".join(
            f'<li><a href="diff-{diff.run_a}-vs-{diff.run_b}.html">'
            f"run {diff.run_a} vs run {diff.run_b}</a>"
            f" - {'identical' if diff.empty else html.escape(diff.summary())}"
            "</li>"
            for diff in diffs
        )
        body.append(f"<h2>Run-vs-run diffs</h2>\n<ul>\n{items}\n</ul>")
    index_path = os.path.join(out_dir, "index.html")
    with open(index_path, "w", encoding="utf-8") as stream:
        stream.write(_page("repro campaign runs", "\n".join(body)))
    written.append(index_path)
    return written
