"""Documentation-site checks: the link checker tool and the docs themselves.

Tier-1 runs the same link check as the CI docs job, so a broken relative
link in README / docs / ROADMAP fails locally before it fails in CI.  A
couple of content assertions pin the claims the docs make to the code
(quickstart commands exist, the backend matrix names the real backends).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_md_links.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_md_links", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestLinkChecker:
    def test_docs_have_no_broken_links(self, capsys):
        """The CI docs job's exact invocation, run as a tier-1 test."""
        targets = [str(REPO_ROOT / name) for name in ("README.md", "docs", "ROADMAP.md")]
        assert checker.main(targets) == 0, capsys.readouterr().err

    def test_detects_broken_link(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](./no_such_file.md)\n")
        problems = checker.check_file(page)
        assert len(problems) == 1
        assert "no_such_file.md" in problems[0]

    def test_accepts_externals_and_anchors(self, tmp_path):
        other = tmp_path / "other.md"
        other.write_text("# Other\n")
        page = tmp_path / "page.md"
        page.write_text(
            "[web](https://example.org/x) [mail](mailto:a@b.c) "
            "[anchor](#section) [file](other.md#heading)\n"
        )
        assert checker.check_file(page) == []

    def test_walks_directories(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "a.md").write_text("[bad](gone.md)\n")
        files = checker.iter_markdown_files([str(tmp_path)])
        assert [f.name for f in files] == ["a.md"]
        assert checker.main([str(tmp_path)]) == 1


class TestDocsMatchCode:
    def test_quickstart_names_real_cli_and_dut(self):
        """Commands printed in the README must exist as written."""
        readme = (REPO_ROOT / "README.md").read_text()
        from repro import targets
        assert "repro-campaign --dut wiper_ecu" in readme
        assert "wiper_ecu" in targets.dut_names()
        assert "--backend async --concurrency 8" in readme

    def test_backend_matrix_is_current(self):
        """The README's backend table names exactly the real backends."""
        readme = (REPO_ROOT / "README.md").read_text()
        from repro.teststand import EXECUTION_BACKENDS
        for backend in EXECUTION_BACKENDS:
            assert f"`{backend}`" in readme

    def test_architecture_names_real_modules(self):
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        for module in ("core", "sheets", "can", "dut", "instruments",
                       "methods", "teststand", "analysis", "paper"):
            assert module in architecture
            assert (REPO_ROOT / "src" / "repro" / module).exists() or \
                (REPO_ROOT / "src" / "repro" / f"{module}.py").exists()

    def test_execution_vm_doc_names_real_ops(self):
        """The VM doc's instruction table must list the real opcode set."""
        doc = (REPO_ROOT / "docs" / "execution-vm.md").read_text()
        from repro.teststand.vm import VM_OPS
        for op in VM_OPS:
            assert f"`{op}`" in doc
        assert "X-UNCOMPILABLE-SCRIPT" in doc
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        assert "execution-vm.md" in architecture

    def test_docs_describe_two_execution_modes(self):
        """Plan replay, the VM's wait-merge pass, plan entries, the guard
        opcodes and the prepared-keyword probe are gone; the README and the
        docs must not describe them as live code."""
        pages = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        for page in pages:
            text = page.read_text()
            for name in ("PlanCursor", "Allocator.replay", "action_replays",
                         "alloc_only_runs", "hit_rate", "merge_waits",
                         "PlanEntry", "fuse_guards", "CHECK_WINDOW",
                         "EVAL_LIMIT", "raw_op_count", "_accepts_prepared"):
                assert name not in text, f"{page.name} names {name}"

    def test_composition_doc_matches_registry_and_lint(self):
        """The composition doc's commands, names and rules must be real."""
        doc = (REPO_ROOT / "docs" / "composition.md").read_text()
        from repro.lint.composition import RULES
        from repro.targets import get_composition
        comp = get_composition("lock+cluster")
        assert "repro-campaign --compose lock+cluster" in doc
        for member in comp.members:
            assert f"`{member.alias}`" in doc
        for rule in RULES:
            assert f"`{rule.id}`" in doc
        # The documented seeded escape exists and is addressed per member.
        assert "cluster.speed_tx_truncated" in doc
        assert "cluster.speed_tx_truncated" in comp.faults_factory().names
        readme = (REPO_ROOT / "README.md").read_text()
        assert "repro-campaign --compose lock+cluster" in readme
        architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
        assert "composition.md" in architecture

    def test_writing_a_dut_cribs_from_real_apis(self):
        guide = (REPO_ROOT / "docs" / "writing-a-dut.md").read_text()
        from repro.analysis.faults import FaultCatalogue, FaultModel  # noqa: F401
        from repro.targets import register_dut, register_stand  # noqa: F401
        for name in ("register_dut", "register_stand", "FaultCatalogue",
                     "drive_output", "family_status_table"):
            assert name in guide
