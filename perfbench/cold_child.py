"""Child process of one traced ``cli_cold`` op.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python -X importtime perfbench/cold_child.py DUMP.json --quiet --dut NAME

Imports ``repro.cli`` exactly as the console script would, installs the
layer wrappers before anything compiles, runs ``main_campaign`` on the
remaining arguments and writes the per-layer self times, the plan-cache
counter deltas and the execution report's retry and failure counts to
``DUMP.json``.  Its stdout and exit code are the CLI's own.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    dump, cli_args = argv[0], argv[1:]
    import repro.cli
    from repro import targets
    from repro.teststand.plan import GLOBAL_PLAN_CACHE

    import spans

    tracer = spans.Tracer()
    spans.install_layers(tracer)
    results = []
    traced_run_campaign = targets.run_campaign

    def run_campaign(spec, **kwargs):
        result = traced_run_campaign(spec, **kwargs)
        results.append(result)
        return result

    targets.run_campaign = run_campaign
    before = GLOBAL_PLAN_CACHE.stats.snapshot()
    tracer.enabled = True
    try:
        code = repro.cli.main_campaign(cli_args)
    finally:
        tracer.enabled = False
    after = GLOBAL_PLAN_CACHE.stats.snapshot()
    reports = [r.execution for r in results if r.execution is not None]
    document = {
        "layers": spans.aggregate(tracer.spans_since(0)),
        "plan_stats": {name: after[name] - before.get(name, 0)
                       for name in after if name != "hit_rate"},
        "retries": sum(max(0, jr.attempts - 1)
                       for report in reports for jr in report),
        "failed_jobs": sum(len(report.failed_jobs) for report in reports),
    }
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
