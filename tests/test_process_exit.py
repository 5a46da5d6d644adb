"""How a tool process ends: its heap is frozen at exit, nothing else skipped.

Every entry point of :mod:`repro.cli` registers :func:`gc.freeze` as an
exit handler, once per process, so the interpreter's shutdown collections
have almost nothing to walk.  The other exit steps still run: the process
pool shuts down without a traceback, stdout is flushed, and the result
store merges its write-ahead log (checked in ``tests/test_chaos.py``).
Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.targets import CampaignSpec, run_campaign

SRC = Path(__file__).resolve().parents[1] / "src"

#: What the ``repro-campaign`` console script runs.
CAMPAIGN = ("import sys; from repro.cli import main_campaign; "
            "sys.exit(main_campaign(sys.argv[1:]))")


def _child(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )


def test_freeze_is_registered_once_and_runs_only_at_exit(tmp_path):
    code = f"""
import atexit, contextlib, gc, io, json

# Registered first, so it runs last: after the freeze.
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
registered = []
register = atexit.register

def counting(fn, *args, **kwargs):
    registered.append(fn)
    return register(fn, *args, **kwargs)

atexit.register = counting
from repro.cli import main_campaign, main_compile

frozen = []
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(2):
        main_campaign(["--dut", "wiper_ecu", "--quiet"])
        frozen.append(gc.get_freeze_count())
    main_compile([{str(tmp_path / "missing")!r}, {str(tmp_path / "out")!r}])
print(json.dumps([sum(fn is gc.freeze for fn in registered), frozen]))
"""
    child = _child(code)
    assert child.returncode == 0, child.stderr
    found, at_exit = child.stdout.splitlines()
    assert json.loads(found) == [1, [0, 0]]
    assert at_exit == "frozen at exit: True"


def test_process_backend_exits_without_a_traceback():
    child = _child(CAMPAIGN, "--dut", "wiper_ecu", "--backend", "process",
                   "--jobs", "2")
    assert child.returncode == 0, child.stderr
    serial = run_campaign(CampaignSpec(dut="wiper_ecu"))
    assert child.stdout == f"{serial.table()}\n{serial.summary()}\n"
    assert "Traceback" not in child.stderr
