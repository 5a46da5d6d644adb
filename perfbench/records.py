"""Result records: what was measured, on which tree, in which shape.

Every benchmark run writes one JSON record under ``.perfbench/results``.
It carries the metrics, a stamp of the tree actually measured (the git
HEAD when the checkout is a repository, and always a digest of the
``src/`` files) and a workload-shape fingerprint.  :mod:`compare` refuses
to compare records whose shapes differ.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from pathlib import Path

__all__ = ["stamp", "shape_id", "write_record", "load_record"]


def _git_head(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(root: Path) -> dict:
    """Identify the tree under measurement and when it was measured."""
    return {
        "git_sha": _git_head(root),
        "source_digest": _source_digest(root),
        "measured_at_unix": int(time.time()),
    }


def full_shape(workload_shape: dict, *, seconds: int, trace: bool) -> dict:
    """The workload's own shape plus what the run and host add to it."""
    return {
        **workload_shape,
        "run_seconds": seconds,
        "trace": bool(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def shape_id(shape: dict) -> str:
    canonical = json.dumps(shape, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_record(root: Path, record: dict) -> Path:
    """Store *record* as ``.perfbench/results/<workload>-s<seed>-t<trace>.json``."""
    directory = root / ".perfbench" / "results"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (f"{record['workload']}-s{record['seed']}"
                        f"-t{int(record['shape']['trace'])}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def load_record(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
