"""Tests for compiled execution plans, the cached carriers of VM programs.

Covers the four guarantees the compiled path rests on:

* verdict tables are byte-identical with plans on or off, on every backend,
* the plan cache is keyed by stand *topology*, so a changed stand never
  runs a stale plan,
* a pooled, :meth:`~repro.teststand.stands.TestStand.reset` stand behaves
  exactly like a fresh one (same job twice on one stand -> same results),
* the new input validation rejects nonsense knobs loudly.
"""

from __future__ import annotations

import copy
import json
import pickle

import pytest

from repro.core import Compiler
from repro.core.errors import ConfigurationError, InstrumentError, ReproError
from repro.dut import InteriorLightEcu
from repro.instruments import Dvm
from repro.paper import interior_harness, paper_signal_set, paper_suite
from repro.core.script import ScriptStep, TestScript
from repro.targets import (
    CampaignSpec,
    build_campaign,
    campaignable_dut_names,
    composition_names,
    get_stand,
)
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
from repro.teststand.serialize import result_to_dict


def _paper_script():
    return Compiler().compile_test(paper_suite(), "interior_illumination")


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

    def test_vm_runs_are_counted(self):
        cache = PlanCache()
        script = _paper_script()
        stand = build_paper_stand()
        for _ in range(3):
            TestStandInterpreter(
                stand, interior_harness(InteriorLightEcu()), paper_signal_set(),
                plan_cache=cache,
            ).run(script)
        stats = cache.stats.snapshot()
        assert stats["plans_compiled"] == 1
        assert stats["plan_hits"] == 2
        assert stats["vm_runs"] == 3


# ---------------------------------------------------------------------------
# Fallback: the safety net the byte-identity rests on
# ---------------------------------------------------------------------------

class TestPlanFallback:
    def test_wrong_plan_degrades_to_full_search_identically(self):
        """A cache handing out a plan for a *different* script must not
        change the verdicts: a plan without a VM program sends the run down
        the classic walk, a full search per action."""
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
        # A "plan" for no combination at all: it carries no program.
        from repro.teststand.plan import ExecutionPlan
        cache = WrongPlanCache(ExecutionPlan())
        poisoned = TestStandInterpreter(
            stand, interior_harness(InteriorLightEcu()), paper_signal_set(),
            plan_cache=cache,
        ).run(script)
        clean = _interpreter(plan_cache=None).run(script)
        a, b = json.loads(json_report(poisoned)), json.loads(json_report(clean))
        a.pop("wall_time_s", None), b.pop("wall_time_s", None)
        assert a == b
        assert cache.stats.plan_hits == 1
        assert cache.stats.vm_runs == 0


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

    def test_fingerprint_memo_stays_in_its_process(self):
        """A pickled or copied script (a process batch ships each one)
        leaves its memos behind: the fingerprint's signal set and the
        stored key text.  Its steps and calls keep nothing either after a
        VM run and a classic one, so it pickles exactly as a fresh equal
        script."""
        from repro.store import ResultStore

        script = _paper_script()
        signals = paper_signal_set()
        fingerprint = script_fingerprint(script, signals)
        report = run_jobs(expand_jobs(
            (script,), signals, {"stand": build_paper_stand},
            interior_harness, {"baseline": InteriorLightEcu},
        ))
        ResultStore(":memory:").record_report(report)
        TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()),
            signals, use_vm=False,
        ).run(script)
        assert {"_allocation_fingerprint", "_stored_key"} <= set(vars(script))
        fresh = _paper_script()
        assert pickle.dumps(script) == pickle.dumps(fresh)
        for clone in (pickle.loads(pickle.dumps(script)), copy.copy(script),
                      copy.deepcopy(script)):
            assert clone == script
            assert vars(clone).keys() == vars(fresh).keys()
        assert script_fingerprint(clone, signals) == fingerprint

    def test_a_compiled_script_cannot_change_under_its_plan(self):
        """A run is a plan hit while its script's fingerprint memo stands,
        so a script changed after its first VM run would replay the old
        plan (here ``ds_fl: put_r r="INF"``, realised as an open circuit)
        while the classic walk applied the new action.  A script refuses
        the change instead, and the two paths agree."""
        from repro._record import FrozenInstanceError
        from repro.core.script import MethodCall, SignalAction

        script = _paper_script()
        signals = paper_signal_set()
        cache = PlanCache()

        def setup_of(plan_cache):
            result = TestStandInterpreter(
                build_paper_stand(), interior_harness(InteriorLightEcu()),
                signals, plan_cache=plan_cache,
            ).run(script)
            return result_to_dict(result)["setup"]

        setup_of(cache)
        changed = tuple(
            SignalAction(action.signal, MethodCall(
                "put_r", {"r": "0", "r_min": "0", "r_max": "10"}))
            if action.signal.lower() == "ds_fl" else action
            for action in script.setup
        )
        assert len(changed) == len(script.setup) and changed != script.setup
        refused = False
        try:
            script.setup = changed
        except FrozenInstanceError:
            refused = True
        assert setup_of(cache) == setup_of(None)
        assert cache.stats.plan_hits == 1
        assert refused

        for name in ("name", "dut", "description", "setup", "steps",
                     "variables", "metadata", "not_a_field"):
            with pytest.raises(FrozenInstanceError,
                               match=f"cannot assign to field '{name}'"):
                setattr(script, name, None)
            with pytest.raises(FrozenInstanceError,
                               match=f"cannot delete field '{name}'"):
                delattr(script, name)
        with pytest.raises(TypeError):
            script.metadata["author"] = "someone"
        assert script.steps is script.steps
        assert isinstance(script.steps, tuple)
        assert not hasattr(script, "append")

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
        assert plan.program is not None, plan.vm_reason
        codes = {op.code for op in plan.program.ops}
        # The paper script stimulates doors with put_r INF (open circuit)
        # and measures with the DVM (allocations): both ops appear.
        assert {"OPEN_CIRCUIT", "GET"} <= codes

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
        job, that job's script and the script's own actions to each, and
        every result documents exactly as the serial run's does."""
        for target in tuple(campaignable_dut_names()) + tuple(composition_names()):
            spec = CampaignSpec(composition=target) \
                if target in composition_names() else CampaignSpec(dut=target)
            campaign, faults = build_campaign(spec)
            jobs = campaign._expand(faults)
            serial = run_jobs(jobs)
            report = run_jobs(jobs, ProcessExecutor(max_workers=2, chunk_size=1))
            assert len(report) == len(jobs)
            for job, job_result, reference in zip(jobs, report, serial):
                assert job_result.job is job
                assert job_result.result.script is job.script
                own = {id(action) for action in job.script.setup}
                own.update(id(action) for step in job.script.steps
                           for action in step.actions)
                for item in job_result.result.action_results:
                    assert id(item.action) in own, (target, job.job_id, item)
                document = result_to_dict(job_result.result)
                expected = result_to_dict(reference.result)
                document.pop("wall_time")
                expected.pop("wall_time")
                assert document == expected, (target, job.job_id)

    def test_each_batch_runs_the_scripts_it_ships(self):
        """A worker keeps a batch's scripts for that batch only: a second
        batch shipping another script of the same name runs that script's
        own steps, not the first one's."""
        script = _paper_script()
        last = script.steps[-1]
        longer = TestScript(
            script.name, script.dut,
            (*script.steps, ScriptStep(last.number + 1, 0.5, last.actions,
                                       remark="appended")),
            setup=script.setup, metadata=script.metadata,
            description=script.description,
        )

        def jobs_of(script):
            return expand_jobs(
                (script,), paper_signal_set(), {"stand": build_paper_stand},
                interior_harness, {"baseline": InteriorLightEcu},
            )

        executor = ProcessExecutor(max_workers=1)  # one worker serves both
        before = run_jobs(jobs_of(script), executor).results[0].result
        after = run_jobs(jobs_of(longer), executor).results[0].result
        assert len(after.steps) == len(before.steps) + 1
        assert after.steps[-1].remark == "appended"
        assert result_to_dict(after)["steps"] == \
            result_to_dict(run_jobs(jobs_of(longer)).results[0].result)["steps"]

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
