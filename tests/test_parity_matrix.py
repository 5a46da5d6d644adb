"""The unified cross-backend parity matrix.

One test asserts the whole determinism contract: for every campaignable
registered target (all bundled DUTs plus every multi-ECU composition) the
campaign verdict table is byte-identical across

    {serial, thread, process, async} x {plans on, off} x {vm on, off}.

Plans and VM both on is the compiled path (with pooled stands, which
travel with plans); either knob off selects the classic reference walk,
where every action takes the allocator's full search.  So each backend
runs one compiled cell and three classic ones: reached through each knob
alone and through both, on pooled stands and on fresh ones - the cells
that carry each knob by itself through every backend's workers.  The
reference cell is the serial backend on the compiled path - the exact
configuration ``repro-campaign`` defaults to - computed once per target
and compared against every other cell.  This module consolidates the
byte-identity assertions that previously lived in ``test_executor``,
``test_async_executor``, ``test_plan`` and ``test_vm``.
"""

from __future__ import annotations

import pytest

from parity import (
    BACKENDS,
    chaos_spec_for,
    spec_for,
    target_names,
    verdict_tables,
)

TARGETS = target_names()

_REFERENCE: dict[str, tuple[str, str]] = {}


def reference(target: str) -> tuple[str, str]:
    """The target's serial / compiled tables, computed once."""
    if target not in _REFERENCE:
        _REFERENCE[target] = verdict_tables(spec_for(target))
    return _REFERENCE[target]


class TestRegistry:
    def test_matrix_covers_duts_and_compositions(self):
        """The matrix must span both registries; an empty axis would turn
        the whole module into a silent no-op."""
        assert "interior_light_ecu" in TARGETS
        assert "lock+cluster" in TARGETS
        assert len(TARGETS) >= 7

    @pytest.mark.parametrize("target", TARGETS)
    def test_reference_baseline_is_clean(self, target):
        """A dirty reference would make every parity cell vacuous: all
        backends agreeing on a broken verdict is not determinism worth
        shipping."""
        from repro.targets import run_campaign

        result = run_campaign(spec_for(target))
        assert result.baseline_clean, target
        assert (result.table(), result.execution.verdict_table()) \
            == reference(target)


class TestParityMatrix:
    @pytest.mark.parametrize("use_vm", (True, False), ids=("vm", "novm"))
    @pytest.mark.parametrize("use_plans", (True, False),
                             ids=("plans", "noplans"))
    @pytest.mark.parametrize("backend,jobs,concurrency", BACKENDS,
                             ids=[b[0] for b in BACKENDS])
    @pytest.mark.parametrize("target", TARGETS)
    def test_verdict_tables_byte_identical(self, target, backend, jobs,
                                           concurrency, use_plans, use_vm):
        spec = spec_for(target, backend, jobs, concurrency,
                        use_plans=use_plans, use_vm=use_vm)
        assert verdict_tables(spec) == reference(target)


class TestChaosParity:
    """The chaos parity gate: a fixed seed injecting only *recoverable*
    faults (transient first-attempt instrument I/O errors) must leave the
    verdict tables byte-identical to the clean reference on every backend.
    The schedule is a pure function of ``(seed, job_id, attempt)``, so the
    same faults fire whether jobs run serially, on threads, in a process
    pool or interleaved on the async multiplexer."""

    TARGET = "interior_light_ecu"

    @pytest.mark.parametrize("backend,jobs,concurrency", BACKENDS,
                             ids=[b[0] for b in BACKENDS])
    def test_chaotic_verdicts_byte_identical(self, backend, jobs,
                                             concurrency):
        from repro.targets import run_campaign

        spec = chaos_spec_for(self.TARGET, backend, jobs, concurrency)
        result = run_campaign(spec)
        assert (result.table(), result.execution.verdict_table()) \
            == reference(self.TARGET)
        # The gate is vacuous unless the chaos actually bit: at least one
        # job must have needed a retry to reach the identical verdicts.
        assert any(jr.attempts > 1 for jr in result.execution.results)
