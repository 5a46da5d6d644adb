"""Tests for the compiled-execution-plan fast path (PR 5).

Covers the four guarantees the fast path rests on:

* verdict tables are byte-identical with plans on or off, on every backend,
* the plan cache is keyed by stand *topology*, so a changed stand never
  replays a stale plan,
* a pooled, :meth:`~repro.teststand.stands.TestStand.reset` stand behaves
  exactly like a fresh one (same job twice on one stand -> same results),
* the new input validation rejects nonsense knobs loudly.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import Compiler
from repro.core.errors import ConfigurationError, InstrumentError, ReproError
from repro.dut import InteriorLightEcu
from repro.instruments import Dvm
from repro.paper import interior_harness, paper_signal_set, paper_suite
from repro.targets import CampaignSpec, build_campaign, get_stand
from repro.teststand import executor as executor_mod
from repro.teststand import (
    GLOBAL_PLAN_CACHE,
    PlanCache,
    ProcessExecutor,
    TestStandInterpreter,
    build_minimal_bench,
    build_paper_stand,
    compile_plan,
    expand_jobs,
    json_report,
    make_executor,
    run_jobs,
)
from repro.teststand.executor import execute_job
from repro.teststand.plan import script_fingerprint, stand_fingerprint


def _paper_script():
    return Compiler().compile_test(paper_suite(), "interior_illumination")


def _action_for(script, entry):
    """The first script action matching a plan entry's (signal, method)."""
    actions = list(script.setup)
    for step in script.steps:
        actions.extend(step.actions)
    return next(
        a.call for a in actions
        if str(a.signal).lower() == entry.signal_key
        and a.method.lower() == entry.method_key
    )


def _interpreter(stand=None, *, plan_cache=GLOBAL_PLAN_CACHE):
    return TestStandInterpreter(
        stand or build_paper_stand(),
        interior_harness(InteriorLightEcu()),
        paper_signal_set(),
        plan_cache=plan_cache,
    )


# ---------------------------------------------------------------------------
# Byte-identical verdicts, plans on vs off, all four backends
# ---------------------------------------------------------------------------

class TestPlanDeterminism:
    """Plans-on/off byte-identity across all backends lives in
    ``test_parity_matrix.py``; here the plan-specific contracts."""

    def test_single_run_reports_identical(self):
        """Beyond verdicts: the full JSON report matches with plans on/off."""
        script = _paper_script()
        with_plans = _interpreter().run(script)
        without = _interpreter(plan_cache=None).run(script)
        a = json.loads(json_report(with_plans))
        b = json.loads(json_report(without))
        a.pop("wall_time_s", None), b.pop("wall_time_s", None)
        assert a == b

    def test_replays_are_counted(self):
        cache = PlanCache()
        script = _paper_script()
        stand = build_paper_stand()
        for _ in range(3):
            # use_vm=False: this test counts PlanCursor replays; the VM
            # fast path would serve the runs without touching the cursor.
            TestStandInterpreter(
                stand, interior_harness(InteriorLightEcu()), paper_signal_set(),
                plan_cache=cache, use_vm=False,
            ).run(script)
        stats = cache.stats.snapshot()
        assert stats["plans_compiled"] == 1
        assert stats["plan_hits"] == 2
        assert stats["action_fallbacks"] == 0
        assert stats["action_replays"] > 0


# ---------------------------------------------------------------------------
# Divergence and fallback: the safety net the byte-identity rests on
# ---------------------------------------------------------------------------

class TestPlanFallback:
    def _plan_for(self, script, stand):
        return compile_plan(
            script, paper_signal_set(), stand,
            policy="first_fit", registry=stand.registry,
            variables={"ubatt": stand.supply_voltage, "t": 0.0},
        )

    def test_cursor_diverges_on_mismatch_and_stays_diverged(self):
        stand = build_paper_stand()
        plan = self._plan_for(_paper_script(), stand)
        cursor = plan.cursor()
        first = plan.entries[0]
        assert cursor.take("definitely_not_a_signal", first.method_key) is None
        assert cursor.misses == 1
        # Even a now-matching visit must miss: the sequence is untrusted.
        assert cursor.take(first.signal_key, first.method_key) is None
        assert cursor.misses == 2 and cursor.hits == 0

    def test_replay_rejects_held_terminal(self):
        from repro.teststand import Allocator

        stand = build_paper_stand()
        script = _paper_script()
        plan = self._plan_for(script, stand)
        entry = next(e for e in plan.entries
                     if e.kind == "alloc" and e.allocation.routes)
        signals = paper_signal_set()
        signal = signals.get(entry.signal_key)
        call = _action_for(script, entry)
        allocator = Allocator(stand.resources, stand.connections,
                              registry=stand.registry)
        # Occupy every planned terminal for a *different* signal.
        resource = stand.resources.get(entry.allocation.resource)
        for route in entry.allocation.routes:
            allocator._held_terminals[(resource.key, route.terminal)] = "squatter"
        assert allocator.replay(signal, call, entry.allocation,
                                window=entry.window) is None
        # Without the squatter the identical replay commits.
        allocator.release("squatter")
        replayed = allocator.replay(signal, call, entry.allocation,
                                    window=entry.window)
        assert replayed is entry.allocation

    def test_replay_evaluates_window_itself_when_not_given(self):
        from repro.teststand import Allocator

        stand = build_paper_stand()
        script = _paper_script()
        plan = self._plan_for(script, stand)
        entry = next(e for e in plan.entries
                     if e.kind == "alloc" and e.allocation.routes)
        signals = paper_signal_set()
        signal = signals.get(entry.signal_key)
        call = _action_for(script, entry)
        allocator = Allocator(stand.resources, stand.connections,
                              registry=stand.registry)
        variables = {"ubatt": stand.supply_voltage, "t": 0.0}
        assert allocator.replay(signal, call, entry.allocation,
                                variables) is entry.allocation

    def test_wrong_plan_degrades_to_full_search_identically(self):
        """A cache handing out a plan for a *different* script must not
        change the verdicts - the cursor mismatches and every action falls
        back to the full search."""
        from repro.teststand.plan import PlanCache

        class WrongPlanCache(PlanCache):
            def __init__(self, wrong_plan):
                super().__init__()
                self._wrong = wrong_plan

            def plan_for(self, *args, **kwargs):
                self.stats.plan_hits += 1
                return self._wrong

        stand = build_paper_stand()
        script = _paper_script()
        # A "plan" whose entries describe a nonsense sequence.
        from repro.teststand.plan import ExecutionPlan, PlanEntry
        bogus = ExecutionPlan((
            PlanEntry("no_such_signal", "put_r", kind="open"),
        ) * 5)
        cache = WrongPlanCache(bogus)
        poisoned = TestStandInterpreter(
            stand, interior_harness(InteriorLightEcu()), paper_signal_set(),
            plan_cache=cache,
        ).run(script)
        clean = _interpreter(plan_cache=None).run(script)
        a, b = json.loads(json_report(poisoned)), json.loads(json_report(clean))
        a.pop("wall_time_s", None), b.pop("wall_time_s", None)
        assert a == b
        # The divergence is visible: every allocator visit fell back.
        assert cache.stats.action_replays == 0
        assert cache.stats.action_fallbacks > 0


# ---------------------------------------------------------------------------
# Cache keying: topology in, object identity out
# ---------------------------------------------------------------------------

class TestPlanInvalidation:
    def test_same_topology_shares_a_plan(self):
        """Two stands from the same builder fingerprint identically."""
        assert stand_fingerprint(build_paper_stand()) == \
            stand_fingerprint(build_paper_stand())

    def test_topology_differences_fingerprint_apart(self):
        reference = stand_fingerprint(build_paper_stand())
        assert stand_fingerprint(build_paper_stand(supply_voltage=9.0)) != reference
        assert stand_fingerprint(build_minimal_bench()) != reference

    def test_changed_stand_compiles_a_fresh_plan(self):
        cache = PlanCache()
        script = _paper_script()

        def _run(stand):
            TestStandInterpreter(
                stand, interior_harness(InteriorLightEcu()), paper_signal_set(),
                plan_cache=cache,
            ).run(script)

        _run(build_paper_stand())
        _run(build_paper_stand())  # same topology: cache hit
        assert cache.stats.plans_compiled == 1
        _run(build_paper_stand(supply_voltage=10.5))  # different topology
        assert cache.stats.plans_compiled == 2
        assert len(cache) == 2

    def test_script_fingerprint_tracks_content_not_identity(self):
        signals = paper_signal_set()
        assert script_fingerprint(_paper_script(), signals) == \
            script_fingerprint(_paper_script(), signals)

    def test_script_fingerprint_not_aliased_across_signal_sets(self):
        """The same script object against a re-pinned signal set must
        fingerprint afresh, not replay the first set's memo."""
        from repro.core.signals import Signal, SignalDirection, SignalKind, SignalSet

        script = _paper_script()
        original = paper_signal_set()
        repinned = SignalSet(
            [
                Signal(s.name, s.direction, s.kind,
                       pins=tuple(reversed(s.pins)) if len(s.pins) > 1 else s.pins,
                       message=s.message, initial_status=s.initial_status)
                for s in original
            ],
            dut=original.dut,
        )
        first = script_fingerprint(script, original)
        second = script_fingerprint(script, repinned)
        assert first != second
        # And the memo still serves the original set correctly afterwards.
        assert script_fingerprint(script, original) == first

    def test_registry_replace_invalidates_fingerprint(self):
        """register(..., replace=True) changes content without changing
        length; the fingerprint must notice."""
        from repro.methods import MethodRegistry, default_registry
        from repro.teststand.plan import registry_fingerprint

        registry = MethodRegistry(default_registry())
        before = registry_fingerprint(registry)
        spec = registry.get("get_u")
        replacement = type(spec)(
            name=spec.name, kind=spec.kind, attribute=spec.attribute,
            parameters=spec.parameters, description="refined",
        )
        registry.register(replacement, replace=True)
        # Same content re-registered: fingerprint recomputes (revision
        # bumped) and compares equal by content.
        assert registry_fingerprint(registry) == before

    def test_compiled_plan_covers_the_allocation_sequence(self):
        script = _paper_script()
        stand = build_paper_stand()
        plan = compile_plan(
            script, paper_signal_set(), stand,
            policy="first_fit", registry=stand.registry,
            variables={"ubatt": stand.supply_voltage, "t": 0.0},
        )
        kinds = {entry.kind for entry in plan.entries}
        assert len(plan) > 0
        # The paper script stimulates doors with put_r INF (open circuit)
        # and measures with the DVM (allocations): both entry kinds appear.
        assert kinds == {"alloc", "open"}

    def test_lru_eviction_is_bounded(self):
        cache = PlanCache(maxsize=1)
        script = _paper_script()
        for volts in (12.0, 11.0, 12.0):
            TestStandInterpreter(
                build_paper_stand(supply_voltage=volts),
                interior_harness(InteriorLightEcu()), paper_signal_set(),
                plan_cache=cache,
            ).run(script)
        assert len(cache) == 1
        # 12.0 was evicted by 11.0 and had to be recompiled.
        assert cache.stats.plans_compiled == 3


# ---------------------------------------------------------------------------
# Stand reuse / reset
# ---------------------------------------------------------------------------

class TestStandReuse:
    def test_same_stand_twice_identical_results(self):
        """reset() + fresh allocator/harness == freshly built stand."""
        script = _paper_script()
        stand = build_paper_stand()
        first = _interpreter(stand).run(script)
        stand.reset()
        second = _interpreter(stand).run(script)
        a, b = json.loads(json_report(first)), json.loads(json_report(second))
        a.pop("wall_time_s", None), b.pop("wall_time_s", None)
        assert a == b

    def test_no_allocation_or_mux_state_leaks(self):
        script = _paper_script()
        stand = build_paper_stand()
        interpreter = _interpreter(stand)
        interpreter.run(script)
        assert interpreter.allocator.held_terminals == {}
        stand.reset()
        fresh = _interpreter(stand)
        assert fresh.allocator.held_terminals == {}
        assert fresh.run(script).passed

    def test_executor_pool_reuses_one_stand_per_factory(self):
        builds = {"count": 0}

        def counting_factory():
            builds["count"] += 1
            return build_paper_stand()

        jobs = expand_jobs(
            (_paper_script(),), paper_signal_set(),
            {"stand": counting_factory}, interior_harness,
            {"baseline": InteriorLightEcu, "again": InteriorLightEcu},
        )
        report = run_jobs(jobs)
        assert report.ok and len(report) == 2
        assert builds["count"] == 1  # second job leased the pooled stand

    def test_reuse_opt_out_builds_per_job(self):
        builds = {"count": 0}

        def counting_factory():
            builds["count"] += 1
            return build_paper_stand()

        jobs = expand_jobs(
            (_paper_script(),), paper_signal_set(),
            {"stand": counting_factory}, interior_harness,
            {"baseline": InteriorLightEcu, "again": InteriorLightEcu},
            reuse_stands=False,
        )
        assert run_jobs(jobs).ok
        assert builds["count"] == 2

    def test_adapted_stand_factory_is_a_value(self):
        """Equal and hash-equal across a pickle round trip, as a process
        worker sees it in every chunk."""
        factory = get_stand("big_rack").factory_for(("A", "B"))
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory and hash(clone) == hash(factory)
        assert clone == get_stand("big_rack").factory_for(["A", "B"])
        assert clone != get_stand("big_rack").factory_for(("B", "A"))

    def test_campaign_builds_lease_one_pooled_stand(self):
        spec = CampaignSpec(dut="wiper_ecu", backend="serial")
        factories, stands = [], []
        for _ in range(2):
            campaign, faults = build_campaign(spec)
            campaign.run(faults)
            factories.append(campaign.stand_factory)
            stands.append(executor_mod._WORKER_STANDS.pools[campaign.stand_factory])
        assert factories[0] is not factories[1]
        assert stands[0] is stands[1] and len(stands[0]) == 1

    def test_execute_job_returns_stand_after_failure(self):
        """A crashing harness factory must not leak the leased stand."""
        def broken_harness(ecu):
            raise RuntimeError("wiring loom on fire")

        job = expand_jobs(
            (_paper_script(),), paper_signal_set(),
            {"stand": build_paper_stand}, broken_harness,
            {"baseline": InteriorLightEcu},
        )[0]
        with pytest.raises(RuntimeError):
            execute_job(job)
        # The pooled stand is back and serves the next (healthy) job.
        healthy = expand_jobs(
            (_paper_script(),), paper_signal_set(),
            {"stand": build_paper_stand}, interior_harness,
            {"baseline": InteriorLightEcu},
        )[0]
        assert execute_job(healthy).passed


# ---------------------------------------------------------------------------
# Chunked process dispatch
# ---------------------------------------------------------------------------

class TestProcessChunking:
    def test_chunk_shapes(self):
        executor = ProcessExecutor(max_workers=2, chunk_size=3)
        jobs = expand_jobs(
            tuple(Compiler().compile_suite(paper_suite())) * 7,
            paper_signal_set(), {"stand": build_paper_stand},
            interior_harness, {"baseline": InteriorLightEcu},
        )
        chunks = executor._chunked(jobs)
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert [position for chunk in chunks for position, _ in chunk] == list(range(7))

    def test_auto_chunking_covers_all_jobs(self):
        executor = ProcessExecutor(max_workers=4)
        jobs = list(range(100))  # shapes only; jobs are not executed
        chunks = executor._chunked(jobs)
        assert sum(len(c) for c in chunks) == 100
        assert all(len(c) >= 1 for c in chunks)

    def test_chunked_process_run_is_deterministic(self):
        jobs = expand_jobs(
            (_paper_script(),), paper_signal_set(),
            {"stand": build_paper_stand}, interior_harness,
            {"baseline": InteriorLightEcu, "rerun": InteriorLightEcu,
             "thrice": InteriorLightEcu},
        )
        serial = run_jobs(jobs)
        chunked = run_jobs(jobs, ProcessExecutor(max_workers=2, chunk_size=2))
        assert serial.verdict_table() == chunked.verdict_table()

    def test_results_come_home_without_their_jobs(self):
        """Workers send back results only; the parent re-attaches its own
        job and that job's script to each."""
        jobs = expand_jobs(
            tuple(Compiler().compile_suite(paper_suite())), paper_signal_set(),
            {"stand": build_paper_stand}, interior_harness,
            {"baseline": InteriorLightEcu, "rerun": InteriorLightEcu},
        )
        report = run_jobs(jobs, ProcessExecutor(max_workers=2, chunk_size=1))
        assert len(report) == len(jobs)
        for job, job_result in zip(jobs, report):
            assert job_result.job is job
            assert job_result.result.script is job.script

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(max_workers=2, chunk_size=0)


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_make_executor_rejects_nonpositive_jobs(self):
        for bad in (0, -3):
            with pytest.raises(ConfigurationError):
                make_executor("thread", bad)
        # ConfigurationError is both a ReproError and a ValueError.
        with pytest.raises(ValueError):
            make_executor("serial", 0)
        with pytest.raises(ReproError):
            make_executor("serial", 0)

    def test_make_executor_still_rejects_negative_concurrency(self):
        with pytest.raises(ValueError):
            make_executor("async", 1, concurrency=-1)
        assert make_executor("async", 1, concurrency=0).concurrency > 0

    def test_campaign_spec_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CampaignSpec(dut="wiper_ecu", jobs=0)
        with pytest.raises(ValueError):
            CampaignSpec(dut="wiper_ecu", concurrency=-2)
        with pytest.raises(ValueError):
            CampaignSpec(dut="wiper_ecu", retries=-1)

    def test_instrument_rejects_bad_io_delay(self):
        with pytest.raises(InstrumentError):
            Dvm("bad", io_delay=-0.001)
        with pytest.raises(InstrumentError):
            Dvm("bad", io_delay=float("nan"))


class TestStandMutationGuard:
    def test_route_added_after_first_run_invalidates_fingerprint(self):
        """In-place topology mutation between runs must re-fingerprint."""
        from repro.teststand.connection import DirectWire, Route

        stand = build_paper_stand()
        before = stand_fingerprint(stand)
        stand.connections.add(
            Route("Ress1", "hi", "DS_FL", DirectWire("PATCH1"))
        )
        assert stand_fingerprint(stand) != before
