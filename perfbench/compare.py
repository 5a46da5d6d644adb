#!/usr/bin/env python3
"""Summarise or compare benchmark result records.

Usage::

    python3 perfbench/compare.py RECORD...                  # spread per metric
    python3 perfbench/compare.py BASE... --against NEW...   # change per metric

Records are the JSON files a run writes under ``.perfbench/results``.
Records are grouped by workload; every record of one workload must share
one workload-shape fingerprint (targets, jobs per pass, backend, workers,
store mode, run length, trace flag, Python version, ``nproc``), and so
must both sides of a comparison.  Mixed shapes are refused with exit
code 2.  A comparison exits 1 when a median got worse by more than the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from records import load_record

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class ShapeMismatch(ValueError):
    """Records of different workload shapes cannot be compared."""


def group(records: list[dict]) -> dict[str, list[dict]]:
    """Records by workload, refusing a workload with mixed shapes."""
    grouped: dict[str, list[dict]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    for workload, members in grouped.items():
        shapes = {record["shape_id"] for record in members}
        if len(shapes) > 1:
            raise ShapeMismatch(
                f"{workload}: records of {len(shapes)} different shapes "
                f"({', '.join(sorted(shapes))})")
    return grouped


def values(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if r["metrics"].get(metric, {}).get("value") is not None]


def spread(samples: list[float]) -> float | None:
    """Inter-quartile range as a share of the median."""
    if len(samples) < 2 or not statistics.median(samples):
        return None
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def bounds() -> dict[str, tuple[str, float]]:
    try:
        document = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except OSError:
        return {}
    return {m["name"]: (m["better"], m["bound"]) for m in document["end_to_end"]}


def summarise(grouped: dict[str, list[dict]]) -> None:
    for workload, members in sorted(grouped.items()):
        print(f"{workload}: {len(members)} record(s), shape "
              f"{members[0]['shape_id']}")
        for metric in members[0]["metrics"]:
            samples = values(members, metric)
            if not samples:
                continue
            share = spread(samples)
            print(f"  {metric:<40} median {statistics.median(samples):>12.6g}"
                  f"  iqr/median {'-' if share is None else f'{share:.4f}'}")


def compare(base: dict[str, list[dict]], new: dict[str, list[dict]]) -> int:
    limits = bounds()
    worse = 0
    for workload in sorted(set(base) & set(new)):
        if base[workload][0]["shape_id"] != new[workload][0]["shape_id"]:
            raise ShapeMismatch(f"{workload}: base shape "
                                f"{base[workload][0]['shape_id']} != new "
                                f"shape {new[workload][0]['shape_id']}")
        print(f"{workload}:")
        for metric in base[workload][0]["metrics"]:
            before, after = values(base[workload], metric), values(new[workload], metric)
            if not before or not after or not statistics.median(before):
                continue
            change = statistics.median(after) / statistics.median(before) - 1.0
            verdict = ""
            if metric in limits:
                better, bound = limits[metric]
                regression = change > bound if better == "lower" else change < -bound
                verdict = "REGRESSED" if regression else "ok"
                worse += regression
            print(f"  {metric:<40} {statistics.median(before):>12.6g} -> "
                  f"{statistics.median(after):>12.6g}  {change:+.2%}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+")
    parser.add_argument("--against", nargs="+", default=None)
    args = parser.parse_args(argv)
    try:
        base = group([load_record(path) for path in args.records])
        if args.against is None:
            summarise(base)
            return 0
        return compare(base, group([load_record(path) for path in args.against]))
    except ShapeMismatch as exc:
        print(f"error: refusing to compare: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
