"""Shared helpers for the cross-backend parity matrix.

The repository's central determinism contract: the campaign verdict table
on stdout is byte-identical no matter which execution backend runs the
jobs, and whether the compiled path (plans, bytecode VM, pooled stands) or
the classic per-action reference walk serves the runs - whichever knob, or
both, turned the compiled path off.  ``test_parity_matrix.py`` asserts
that contract for every registered campaignable target - each bundled DUT
and each multi-ECU composition - in one place; the per-feature test modules
(``test_executor``, ``test_async_executor``, ``test_plan``, ``test_vm``)
keep only their feature-specific assertions.
"""

from __future__ import annotations

from repro._record import replace
from repro.targets import (
    CampaignSpec,
    campaignable_dut_names,
    composition_names,
    get_composition,
    get_dut,
    run_campaign,
)

__all__ = [
    "BACKENDS",
    "chaos_spec_for",
    "parity_faults",
    "spec_for",
    "target_names",
    "verdict_tables",
]

#: (backend, jobs, concurrency): every execution backend in a canonical
#: worker shape that actually exercises it (multiple threads, a real
#: process pool, a multiplexing async worker).
BACKENDS = (
    ("serial", 1, 0),
    ("thread", 3, 0),
    ("process", 2, 0),
    ("async", 1, 4),
)


def target_names() -> tuple[str, ...]:
    """Every campaignable registered target: DUTs, then compositions.

    Composition names carry a ``+`` (``lock+cluster``) and live in their
    own registry, so the two name spaces never collide.
    """
    return tuple(campaignable_dut_names()) + tuple(composition_names())


def parity_faults(catalogue) -> tuple[str, ...]:
    """A bounded fault subset: the first and last catalogue entries.

    Parity is about execution infrastructure, not catalogue coverage, so
    two faults (plus the implicit healthy baseline) are enough signal per
    cell - the full matrix is |targets| x 4 backends x 2 x 2 campaigns.
    """
    names = catalogue.names
    if len(names) <= 2:
        return names
    return (names[0], names[-1])


def spec_for(
    target: str,
    backend: str = "serial",
    jobs: int = 1,
    concurrency: int = 0,
    *,
    use_plans: bool = True,
    use_vm: bool = True,
) -> CampaignSpec:
    """A bounded campaign spec for one cell of the parity matrix.

    Both knobs on is the compiled path (what ``repro-campaign`` runs);
    either one off selects the classic reference walk.  ``use_plans`` also
    toggles stand reuse, so the classic walk runs on pooled stands in one
    cell and on fresh ones in the other two.
    """
    if target in composition_names():
        catalogue = get_composition(target).faults_factory()
        which = {"composition": target}
    else:
        catalogue = get_dut(target).faults_factory()
        which = {"dut": target}
    return CampaignSpec(
        faults=parity_faults(catalogue),
        backend=backend,
        jobs=jobs,
        concurrency=concurrency,
        use_plans=use_plans,
        reuse_stands=use_plans,
        use_vm=use_vm,
        **which,
    )


def chaos_spec_for(
    target: str,
    backend: str = "serial",
    jobs: int = 1,
    concurrency: int = 0,
    *,
    seed: int = 42,
    profile: str = "flaky-instruments",
) -> CampaignSpec:
    """The chaos parity cell: *spec_for* plus a recoverable fault schedule.

    The ``flaky-instruments`` profile injects only transient, first-attempt
    instrument faults, so a retrying executor must produce verdict tables
    byte-identical to the undisturbed reference - on every backend, because
    the schedule is content-keyed, not scheduling-keyed.
    """
    return replace(
        spec_for(target, backend, jobs, concurrency),
        chaos_seed=seed, chaos_profile=profile, retries=2,
    )


def verdict_tables(spec: CampaignSpec) -> tuple[str, str]:
    """Run *spec*; the byte-comparable stdout renderings of the result."""
    result = run_campaign(spec)
    return result.table(), result.execution.verdict_table()
