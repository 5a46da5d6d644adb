"""Tests for the CLI entry points and the extended / second-project suites."""

from __future__ import annotations

import os
import re

import pytest

from repro.cli import main_compile, main_report, main_run
from repro.core import Compiler
from repro.paper import (
    build_locking_harness,
    extended_suite,
    locking_signal_set,
    locking_suite,
    paper_suite,
)
from repro.sheets import save_suite
from repro.teststand import TestStandInterpreter, build_big_rack


class TestCli:
    def test_compile_run_report_pipeline(self, tmp_path, capsys):
        workbook_dir = str(tmp_path / "workbook")
        out_dir = str(tmp_path / "scripts")
        save_suite(paper_suite(), workbook_dir)

        assert main_compile([workbook_dir, out_dir]) == 0
        script_path = os.path.join(out_dir, "interior_illumination.xml")
        assert os.path.exists(script_path)

        assert main_report([script_path]) == 0
        captured = capsys.readouterr()
        assert "interior_light_ecu" in captured.out

        assert main_run([script_path, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out

    def test_run_on_other_stands(self, tmp_path, capsys):
        workbook_dir = str(tmp_path / "workbook")
        out_dir = str(tmp_path / "scripts")
        save_suite(paper_suite(), workbook_dir)
        main_compile([workbook_dir, out_dir])
        script_path = os.path.join(out_dir, "interior_illumination.xml")
        for stand in ("big_rack", "minimal"):
            assert main_run([script_path, "--stand", stand, "--quiet"]) == 0

    def test_run_compiled_composed_sheets(self, tmp_path, capsys):
        """repro-run serves a composed sheet like any other: the script's
        DUT name is the composition's, and the summary matches the
        declarative composed run."""
        from repro.core import read_script
        from repro.paper import composed_suite
        from repro.targets import RunSpec, run_single
        from repro.teststand.report import summary_line

        def without_wall(line):
            return re.sub(r"[0-9.]+ ms wall", "ms wall", line)

        workbook_dir = str(tmp_path / "workbook")
        out_dir = str(tmp_path / "scripts")
        save_suite(composed_suite(), workbook_dir)
        assert main_compile([workbook_dir, out_dir]) == 0
        capsys.readouterr()
        paths = sorted(os.path.join(out_dir, name)
                       for name in os.listdir(out_dir))
        assert len(paths) == len(composed_suite())
        for path in paths:
            assert main_run([path, "--quiet"]) == 0
            expected = summary_line(run_single(RunSpec(
                script=read_script(path), composition="lock+cluster")))
            assert without_wall(capsys.readouterr().out) \
                == without_wall(expected) + "\n"

    def test_run_unknown_dut_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "alien.xml"
        path.write_text(
            '<?xml version="1.0"?><testscript name="t" dut="alien_ecu">'
            "<steps/></testscript>"
        )
        assert main_run([str(path)]) == 2
        assert "unknown DUT" in capsys.readouterr().err


class TestExtendedSuites:
    def test_extended_suite_passes_on_paper_stand(self):
        from repro.paper import build_paper_harness, paper_signal_set
        from repro.teststand import build_paper_stand

        suite = extended_suite()
        compiler = Compiler()
        for test in suite:
            script = compiler.compile_test(suite, test)
            interpreter = TestStandInterpreter(build_paper_stand(), build_paper_harness(),
                                               paper_signal_set())
            result = interpreter.run(script)
            assert result.passed, f"{test.name} failed"

    def test_extended_suite_has_four_sheets(self):
        assert len(extended_suite()) == 4

    def test_locking_suite_passes_on_big_rack(self):
        suite = locking_suite()
        compiler = Compiler()
        stand = build_big_rack(pins=("KEY_SW", "UNLOCK_SW", "LOCK_LED", "LOCK_ACT"))
        for test in suite:
            script = compiler.compile_test(suite, test)
            interpreter = TestStandInterpreter(stand, build_locking_harness(),
                                               locking_signal_set())
            result = interpreter.run(script)
            assert result.passed, f"{test.name} failed"

    def test_locking_suite_reuses_shared_statuses(self):
        suite = locking_suite()
        assert "Open" in suite.statuses and "Ho" in suite.statuses
        assert "Lock" in suite.statuses and "Locked" in suite.statuses
