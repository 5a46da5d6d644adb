"""Tests for the job-based campaign executor and the interpreter timing /
stop-on-error fixes that ride on it.

The process-backend tests rely on module-level factories (anything a job
carries must be picklable to cross a process boundary).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro import chaos
from repro.analysis import FaultCampaign, interior_light_faults
from repro.core import Compiler
from repro.core.errors import InstrumentIOError, ReproError
from repro.core.script import MethodCall, ScriptStep, SignalAction, TestScript
from repro.dut import InteriorLightEcu
from repro.paper import (
    COMPOSITION_NAME,
    interior_harness,
    paper_signal_set,
    paper_suite,
)
from repro.targets import (
    CampaignSpec,
    register_composition,
    run_campaign,
    unregister_composition,
)
from repro.teststand import (
    EXECUTION_BACKENDS,
    GLOBAL_PLAN_CACHE,
    Job,
    ProcessExecutor,
    ResiliencePolicy,
    SerialExecutor,
    TestStandInterpreter,
    ThreadExecutor,
    Verdict,
    build_paper_stand,
    expand_jobs,
    make_executor,
    run_across_stands,
    run_jobs,
    summary_line,
    text_report,
)
from repro.teststand import executor as executor_mod
from repro.teststand import transport
from repro.teststand.profiling import PROFILER


def paper_scripts():
    return Compiler().compile_suite(paper_suite())


# -- module-level factories (picklable; see module docstring) ---------------

def flaky_io_ecu():
    raise InstrumentIOError("bus dropped the frame")


def logging_ecu(path: str):
    """A healthy ECU that appends one line to *path* per build."""
    with open(path, "a", encoding="utf-8") as log:
        log.write("built\n")
    return InteriorLightEcu()


def clean_worker_ecu():
    """A healthy ECU that refuses to run where an earlier batch left a
    chaos policy installed or the profiler switched on."""
    if chaos.ACTIVE is not None or PROFILER.enabled:
        raise AssertionError(f"state leaked into a clean job: chaos "
                             f"{chaos.ACTIVE}, profiler {PROFILER.enabled}")
    return InteriorLightEcu()


#: Holds :func:`blocking_ecu` until a test lets it go.
_RELEASE_ECU = threading.Event()


def blocking_ecu():
    """A healthy ECU that takes until :data:`_RELEASE_ECU` is set to build."""
    _RELEASE_ECU.wait(10.0)
    return InteriorLightEcu()


def deadline_stand():
    """The paper stand under a factory of its own, so it has its own pool."""
    return build_paper_stand()


#: Holds the slow stands below until a test lets them go.
_RELEASE_STAND = threading.Event()


def slow_to_build_stand():
    """The paper stand, built once :data:`_RELEASE_STAND` is set."""
    _RELEASE_STAND.wait(10.0)
    return build_paper_stand()


def slow_to_reset_stand():
    """The paper stand, whose reset waits until :data:`_RELEASE_STAND` is set."""
    stand = build_paper_stand()
    reset = stand.reset

    def slow_reset():
        _RELEASE_STAND.wait(10.0)
        reset()

    stand.reset = slow_reset
    return stand


def _paper_jobs(ecu_factory, groups: int):
    return expand_jobs(
        paper_scripts(), paper_signal_set(), {"": build_paper_stand},
        interior_harness, {f"g{i}": ecu_factory for i in range(groups)},
    )


def _action(signal: str, method: str, **params) -> SignalAction:
    return SignalAction(signal, MethodCall(method, {k: str(v) for k, v in params.items()}))


# ---------------------------------------------------------------------------
# Interpreter fixes
# ---------------------------------------------------------------------------

class TestInterpreterTiming:
    def _run(self, script):
        interpreter = TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()), paper_signal_set()
        )
        return interpreter.run(script)

    def test_wall_time_is_recorded(self):
        script = Compiler().compile_test(paper_suite(), "interior_illumination")
        result = self._run(script)
        assert result.wall_time > 0.0
        assert f"{result.wall_time * 1e3:.1f} ms" in summary_line(result)
        assert "Wall time" in text_report(result)

    def test_duration_counts_wait_actions(self):
        """`wait` advances the harness clock beyond the step's own duration."""
        step = ScriptStep(0, 1.0, (_action("NIGHT", "wait", t=5),))
        script = TestScript("waits", "interior_light_ecu", [step])
        result = self._run(script)
        assert result.duration == pytest.approx(6.0)
        assert sum(s.duration for s in result.steps) == pytest.approx(1.0)

    def test_duration_counts_setup_time(self):
        """Time spent during setup actions belongs to the simulated duration."""
        step = ScriptStep(0, 1.0, (_action("NIGHT", "wait", t=5),))
        script = TestScript("setup_waits", "interior_light_ecu", [step],
                            setup=(_action("NIGHT", "wait", t=2),))
        result = self._run(script)
        assert result.duration == pytest.approx(8.0)

    def test_duration_still_matches_step_sum_without_waits(self):
        script = Compiler().compile_test(paper_suite(), "interior_illumination")
        result = self._run(script)
        assert result.duration == pytest.approx(sum(s.duration for s in result.steps))


class TestSetupStopOnError:
    def _script_with_broken_setup(self):
        step = ScriptStep(0, 0.5, (_action("INT_ILL", "get_u", u_min=0, u_max=1),))
        return TestScript("broken_setup", "interior_light_ecu", [step],
                          setup=(_action("no_such_signal", "get_u", u_min=0, u_max=1),
                                 _action("NIGHT", "wait", t=1)))

    def test_setup_error_aborts_run_when_stop_on_error(self):
        interpreter = TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()),
            paper_signal_set(), stop_on_error=True,
        )
        result = interpreter.run(self._script_with_broken_setup())
        # The failing setup action is preserved, later setup actions and all
        # steps are not executed.
        assert len(result.setup) == 1
        assert result.setup[0].verdict is Verdict.ERROR
        assert result.steps == ()
        assert result.verdict is Verdict.ERROR

    def test_setup_error_continues_without_stop_on_error(self):
        interpreter = TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()),
            paper_signal_set(), stop_on_error=False,
        )
        result = interpreter.run(self._script_with_broken_setup())
        assert len(result.setup) == 2
        assert len(result.steps) == 1

    def test_holds_released_after_run(self):
        interpreter = TestStandInterpreter(
            build_paper_stand(), interior_harness(InteriorLightEcu()), paper_signal_set()
        )
        result = interpreter.run(Compiler().compile_test(paper_suite(),
                                                         "interior_illumination"))
        assert result.passed
        assert interpreter.allocator.held_terminals == {}


# ---------------------------------------------------------------------------
# Executor engine
# ---------------------------------------------------------------------------

class TestExecutorEngine:
    def test_expand_jobs_orders_cross_product(self):
        scripts = paper_scripts()
        jobs = expand_jobs(
            scripts, paper_signal_set(),
            {"paper": build_paper_stand},
            interior_harness,
            {"baseline": InteriorLightEcu, "faulty": InteriorLightEcu},
        )
        assert len(jobs) == 2 * len(scripts)
        assert [job.index for job in jobs] == list(range(len(jobs)))
        assert jobs[0].group == "baseline" and jobs[-1].group == "faulty"
        assert all(job.stand_label == "paper" for job in jobs)

    def test_make_executor_backends(self):
        assert make_executor("auto", 1).name == "serial"
        assert make_executor("auto", 4).name == "thread"
        assert make_executor("serial", 8).name == "serial"
        assert make_executor("process", 2).workers == 2
        # The async backend is one worker multiplexing N stands: concurrency
        # comes from --concurrency, falls back to --jobs, then to the default.
        assert make_executor("async", 1).concurrency == 8
        assert make_executor("async", 4).concurrency == 4
        assert make_executor("async", 4, concurrency=16).concurrency == 16
        assert make_executor("async", 4).workers == 1
        with pytest.raises(ReproError):
            make_executor("quantum", 2)
        with pytest.raises(ReproError):
            make_executor("async", 1, concurrency=-8)
        assert set(EXECUTION_BACKENDS) == {"serial", "thread", "process", "async"}

    def test_retries_transient_errors(self):
        failures = {"left": 1}

        def flaky_ecu():
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient allocation race")
            return InteriorLightEcu()

        jobs = expand_jobs(
            paper_scripts(), paper_signal_set(), {"": build_paper_stand},
            interior_harness, {"": flaky_ecu},
        )
        report = run_jobs(jobs, SerialExecutor(),
                          resilience=ResiliencePolicy(max_attempts=3))
        assert report.ok
        assert report.results[0].attempts == 2
        assert report.results[0].result.passed

    def test_missing_stand_variable_fails_on_first_attempt(self):
        """A stand cannot gain a variable between attempts."""
        reading = SignalAction("INT_ILL", MethodCall(
            "get_u", {"u": "0", "u_min": "(-0.1*vref)", "u_max": "1"}))
        script = TestScript("needs_vref", "interior_light_ecu",
                            [ScriptStep(0, 0.5, (reading,))])
        jobs = expand_jobs([script], paper_signal_set(),
                           {"": build_paper_stand}, interior_harness,
                           {"": InteriorLightEcu})
        report = run_jobs(jobs, SerialExecutor(), resilience=ResiliencePolicy(
            max_attempts=3, backoff_base=0.0))
        (job_result,) = report.results
        assert job_result.attempts == 1
        assert job_result.error == (
            "ExecutionError: test stand 'paper_stand' does not provide "
            "variables ['vref']")

    def test_terminal_error_is_reported_not_raised(self):
        def broken_ecu():
            raise RuntimeError("stand on fire")

        jobs = expand_jobs(
            paper_scripts(), paper_signal_set(), {"": build_paper_stand},
            interior_harness, {"": broken_ecu},
        )
        report = run_jobs(jobs, SerialExecutor(),
                          resilience=ResiliencePolicy(max_attempts=2))
        assert not report.ok
        job_result = report.results[0]
        assert job_result.result is None
        assert job_result.attempts == 2
        assert "stand on fire" in job_result.error
        assert job_result.verdict is Verdict.ERROR
        assert "ERROR" in report.verdict_table()
        with pytest.raises(ReproError):
            report.test_results()

    def test_results_stream_and_slot_in_order(self):
        seen = []
        jobs = expand_jobs(
            paper_scripts(), paper_signal_set(), {"": build_paper_stand},
            interior_harness,
            {f"g{i}": InteriorLightEcu for i in range(6)},
        )
        report = run_jobs(jobs, ThreadExecutor(4), on_result=seen.append)
        assert len(seen) == len(jobs)          # every result streamed once
        assert [jr.job.index for jr in report] == list(range(len(jobs)))

    def test_run_across_stands_all_pass(self):
        from repro.teststand import build_big_rack, build_minimal_bench

        report = run_across_stands(
            paper_scripts(), paper_signal_set(),
            {"paper": build_paper_stand, "big": build_big_rack,
             "minimal": build_minimal_bench},
            interior_harness, InteriorLightEcu,
        )
        assert len(report) == 3
        assert all(result.passed for result in report.test_results())


class TestDeadlineStandReuse:
    """Under a deadline the blocking driver takes each attempt's stand from
    the calling thread's pool, so stands are reused as without a deadline,
    and resets or builds it within the budget."""

    def test_warm_campaign_under_a_deadline_builds_no_stand(self, monkeypatch):
        from repro.teststand.stands import TestStand

        spec = CampaignSpec(dut="wiper_ecu", backend="serial", deadline=30.0)
        run_campaign(spec)
        built = []
        original = TestStand.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TestStand, "__init__", counting_init)
        result = run_campaign(spec)
        assert len(result.execution) == 36
        assert result.execution.ok
        assert built == []

    def test_abandoned_attempt_keeps_its_stand_out_of_the_pool(self):
        warm = run_jobs(self._jobs(deadline_stand, clean_worker_ecu),
                        SerialExecutor())
        assert warm.ok and len(self._idle(deadline_stand)) == 1
        jobs = self._jobs(deadline_stand, blocking_ecu)
        _RELEASE_ECU.clear()
        try:
            report = run_jobs(jobs, SerialExecutor(), resilience=ResiliencePolicy(
                max_attempts=1, deadline=0.2))
            assert "JobTimeoutError" in report.results[0].error
            assert self._idle(deadline_stand) == []
        finally:
            _RELEASE_ECU.set()
        self._join_helpers(jobs[0])
        assert self._idle(deadline_stand) == []

    @pytest.mark.parametrize("factory, warm", [
        (slow_to_build_stand, False), (slow_to_reset_stand, True),
    ], ids=["build", "reset"])
    def test_getting_the_stand_counts_against_the_deadline(self, factory, warm):
        if warm:
            _RELEASE_STAND.set()
            assert run_jobs(self._jobs(factory, clean_worker_ecu),
                            SerialExecutor()).ok
            assert len(self._idle(factory)) == 1
        jobs = self._jobs(factory, clean_worker_ecu)
        _RELEASE_STAND.clear()
        try:
            report = run_jobs(jobs, SerialExecutor(), resilience=ResiliencePolicy(
                max_attempts=1, deadline=0.2))
            assert "JobTimeoutError" in report.results[0].error
            assert report.results[0].wall_time < 5.0
        finally:
            _RELEASE_STAND.set()
        self._join_helpers(jobs[0])
        assert self._idle(factory) == []

    @staticmethod
    def _jobs(stand_factory, ecu_factory):
        return expand_jobs(paper_scripts()[:1], paper_signal_set(),
                           {"": stand_factory}, interior_harness,
                           {"": ecu_factory})

    @staticmethod
    def _join_helpers(job) -> None:
        """Join the abandoned helper threads of *job*, each within 10 s."""
        helpers = [t for t in threading.enumerate()
                   if t.name == f"deadline-{job.index}"]
        assert helpers
        for helper in helpers:
            helper.join(10.0)
            assert not helper.is_alive()

    @staticmethod
    def _idle(factory) -> list:
        """This thread's idle stands of *factory*."""
        pools = getattr(executor_mod._WORKER_STANDS, "pools", {})
        return pools.get(factory, [])


class TestSerialParallelEquivalence:
    """Backend byte-identity itself lives in ``test_parity_matrix.py``;
    this class keeps only executor-specific behaviours."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return FaultCampaign(paper_scripts(), paper_signal_set(), build_paper_stand,
                             interior_harness, InteriorLightEcu)

    def test_interleaved_jobs_on_a_shared_stand(self, campaign):
        """Allocator holds are per-job: sharing one physical stand between
        interleaved workers must not leak terminal holds between runs."""
        shared_stand = build_paper_stand()
        jobs = expand_jobs(
            paper_scripts(), paper_signal_set(),
            {"shared": lambda: shared_stand},
            interior_harness,
            {f"run{i}": InteriorLightEcu for i in range(8)},
        )
        report = run_jobs(jobs, ThreadExecutor(4))
        results = report.test_results()
        assert len(results) == 8
        assert all(result.passed for result in results)

    def test_execution_metadata_attached(self, campaign):
        result = campaign.run(interior_light_faults(), executor=ThreadExecutor(2))
        execution = result.execution
        assert execution is not None
        assert execution.backend == "thread" and execution.workers == 2
        assert len(execution) == 10            # baseline + 9 faults, 1 script
        assert execution.wall_time > 0.0
        assert execution.by_group().keys() >= {"baseline", "lamp_stuck_off"}
        assert "thread" in execution.summary()


# ---------------------------------------------------------------------------
# The warm process pool
# ---------------------------------------------------------------------------

def _current_pool():
    return transport._POOL


def _drop_pool() -> None:
    """Shut the warm pool down, so the next batch forks fresh workers."""
    pool = _current_pool()
    if pool is not None:
        transport._retire_pool(pool.executor)


def _run_in_forked_child(conn) -> None:
    """Child side of the fork test: one process batch, then report."""
    inherited = _current_pool()
    jobs = _paper_jobs(InteriorLightEcu, 3)
    table = run_jobs(jobs, ProcessExecutor(2)).verdict_table()
    mine = _current_pool()
    conn.send((mine is not inherited, mine.pid == os.getpid(), table))
    # A multiprocessing child joins its own children before the standard
    # library shuts pools down, so it retires the pool itself.
    transport._retire_pool(mine.executor)


class TestWarmProcessPool:
    def test_consecutive_campaigns_share_one_warm_pool(self):
        """The second campaign reuses the first one's workers, and their
        plan caches: with the profiler on it merges no plan miss."""
        spec = CampaignSpec(dut="wiper_ecu", backend="process", jobs=1)
        _drop_pool()
        # Workers fork from this process: an empty cache here means only
        # a warm worker can serve the second campaign without compiling.
        GLOBAL_PLAN_CACHE.clear()
        PROFILER.enable()
        try:
            first = run_campaign(spec)
            pool = _current_pool()
            assert pool is not None and pool.workers == 1
            assert GLOBAL_PLAN_CACHE.stats.plan_misses > 0
            before = GLOBAL_PLAN_CACHE.stats.snapshot()
            second = run_campaign(spec)
            after = GLOBAL_PLAN_CACHE.stats.snapshot()
        finally:
            PROFILER.disable()
            PROFILER.reset()
        assert _current_pool() is pool
        assert after["plan_misses"] == before["plan_misses"]
        assert after["plan_hits"] - before["plan_hits"] == len(second.execution)
        assert first.table() == second.table()
        # The profiled chunks switched the worker's profiler back off.
        assert run_jobs(_paper_jobs(clean_worker_ecu, 2), ProcessExecutor(1)).ok
        assert _current_pool() is pool

    def test_closure_factories_are_refused_and_the_pool_stays_warm(self):
        """Jobs that do not pickle raise the error that points to the
        thread backend, and the next batch runs on the same warm pool."""
        assert run_jobs(_paper_jobs(InteriorLightEcu, 1), ProcessExecutor(2)).ok
        warm = _current_pool()

        def closure_ecu():
            return InteriorLightEcu()

        with pytest.raises(ReproError, match="thread backend"):
            run_jobs(_paper_jobs(closure_ecu, 2), ProcessExecutor(2))
        assert _current_pool() is warm
        assert run_jobs(_paper_jobs(InteriorLightEcu, 2), ProcessExecutor(2)).ok
        assert _current_pool() is warm

    def test_chaos_batch_then_clean_batch(self):
        """A worker death replaces the pool; the next clean batch runs on
        the replacement with no chaos policy left in its workers."""
        serial = run_jobs(_paper_jobs(InteriorLightEcu, 4)).verdict_table()
        assert run_jobs(_paper_jobs(InteriorLightEcu, 4),
                        ProcessExecutor(2)).verdict_table() == serial
        warm = _current_pool()
        policy = ResiliencePolicy(
            max_attempts=3, backoff_base=0.0,
            chaos=chaos.ChaosPolicy.from_profile("fragile-workers", seed=7),
        )
        chaotic = run_jobs(_paper_jobs(InteriorLightEcu, 4),
                           ProcessExecutor(2), resilience=policy)
        assert chaotic.ok and chaotic.verdict_table() == serial
        replaced = _current_pool()
        assert replaced is not warm  # a worker died: the pool was replaced
        clean = run_jobs(_paper_jobs(clean_worker_ecu, 4), ProcessExecutor(2))
        assert clean.ok, clean.failed_jobs
        assert clean.verdict_table() == serial
        assert _current_pool() is replaced

    @pytest.mark.parametrize("executor", (SerialExecutor(), ProcessExecutor(1)),
                             ids=("serial", "process"))
    def test_quarantine_book_is_per_batch(self, executor):
        policy = ResiliencePolicy(max_attempts=1, backoff_base=0.0,
                                  quarantine_after=2)
        for _ in range(2):
            report = run_jobs(_paper_jobs(flaky_io_ecu, 4), executor,
                              resilience=policy)
            # Every batch starts with an empty book: two real failures
            # trip the breaker, the rest are quarantined unexecuted.
            assert [jr.attempts for jr in report.results] == [1, 1, 0, 0]

    def test_concurrent_batches_keep_separate_books(self):
        """Two threads' batches share one warm worker; the failing batch's
        breaker must not quarantine the healthy batch's (same) stand."""
        policy = ResiliencePolicy(max_attempts=1, backoff_base=0.0,
                                  quarantine_after=1)
        executor = ProcessExecutor(1, chunk_size=1)
        tripped = threading.Event()
        reports = {}

        def failing():
            reports["failing"] = run_jobs(
                _paper_jobs(flaky_io_ecu, 6), executor, resilience=policy,
                on_result=lambda job_result: tripped.set())

        def healthy():
            # Start once the worker has booked the other batch's failure.
            assert tripped.wait(60)
            reports["healthy"] = run_jobs(_paper_jobs(InteriorLightEcu, 6),
                                          executor, resilience=policy)

        threads = [threading.Thread(target=failing),
                   threading.Thread(target=healthy)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert reports["healthy"].ok
        assert [jr.attempts for jr in reports["failing"].results] == [1] + [0] * 5

    def test_threads_resizing_the_pool_lose_no_chunk(self):
        """More threads than cores, alternating worker counts: every batch
        replaces the pool another thread's batch may still be using."""
        serial = run_jobs(_paper_jobs(InteriorLightEcu, 4)).verdict_table()
        tables, errors = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def batches(workers):
            try:
                for _ in range(3):
                    report = run_jobs(_paper_jobs(InteriorLightEcu, 4),
                                      ProcessExecutor(workers, chunk_size=1))
                    tables.append(report.verdict_table())
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=batches, args=(1 + i % 2,), daemon=True)
                   for i in range(4)]
        deadline = time.monotonic() + 60
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(max(0.0, deadline - time.monotonic()))
                assert not thread.is_alive(), "a batch never finished"
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert tables == [serial] * 12

    def test_generator_closed_early_cancels_pending_chunks(self, tmp_path):
        log = tmp_path / "built.log"
        jobs = _paper_jobs(functools.partial(logging_ecu, str(log)), 12)
        stream = ProcessExecutor(1, chunk_size=1).map_jobs(
            executor_mod._execute_with_retries, jobs, ResiliencePolicy(), 0)
        next(stream)
        stream.close()
        # The one worker serves chunks in submission order, so once a
        # later batch is done every chunk the closed one left queued ran.
        assert run_jobs(_paper_jobs(InteriorLightEcu, 1), ProcessExecutor(1)).ok
        assert len(log.read_text().splitlines()) < len(jobs)

    def test_forked_child_gets_its_own_pool(self):
        table = run_jobs(_paper_jobs(InteriorLightEcu, 3),
                         ProcessExecutor(2)).verdict_table()
        parent_pool = _current_pool()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_run_in_forked_child, args=(sender,))
        child.start()
        try:
            assert receiver.poll(60), "the forked child's batch never finished"
            replaced, owned, child_table = receiver.recv()
            child.join(60)
            assert not child.is_alive() and child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
        assert replaced and owned
        assert child_table == table
        # The parent's pool is untouched and still serves its batches.
        assert _current_pool() is parent_pool
        assert run_jobs(_paper_jobs(InteriorLightEcu, 3),
                        ProcessExecutor(2)).verdict_table() == table
        assert _current_pool() is parent_pool

    def test_registration_replaces_a_pool_forked_before_it(self):
        """Composed jobs look their composition up by name in the worker's
        registry, so workers forked before it was registered must not run
        its campaign."""
        bundled = unregister_composition(COMPOSITION_NAME)
        try:
            assert run_jobs(_paper_jobs(InteriorLightEcu, 1), ProcessExecutor(1)).ok
            forked = _current_pool()
        finally:
            register_composition(bundled)
        spec = dict(composition=COMPOSITION_NAME,
                    faults=("cluster.speed_tx_truncated",))
        serial = run_campaign(CampaignSpec(**spec))
        process = run_campaign(CampaignSpec(backend="process", jobs=1, **spec))
        assert _current_pool() is not forked
        assert serial.baseline_clean
        assert process.table() == serial.table()


# ---------------------------------------------------------------------------
# repro-campaign CLI
# ---------------------------------------------------------------------------

class TestCampaignCli:
    @pytest.fixture()
    def workbook(self, tmp_path):
        from repro.sheets import save_suite

        directory = str(tmp_path / "workbook")
        save_suite(paper_suite(), directory)
        return directory

    def _stdout(self, capsys, argv):
        from repro.cli import main_campaign

        code = main_campaign(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parallel_output_is_byte_identical(self, workbook, capsys):
        code1, out1, err1 = self._stdout(capsys, [workbook])
        code3, out3, err3 = self._stdout(capsys, [workbook, "--jobs", "3"])
        assert code1 == 0 and code3 == 0
        assert out1 == out3                      # verdicts never depend on --jobs
        assert "lamp_stuck_off" in out1
        assert "serial backend" in err1 and "thread backend" in err3

    def test_fault_subset_and_quiet(self, workbook, capsys):
        code, out, _ = self._stdout(
            capsys, [workbook, "--faults", "lamp_stuck_off", "--quiet"])
        assert code == 0
        assert "1 faults, 1 detected" in out

    def test_unknown_fault_rejected(self, workbook, capsys):
        code, _, err = self._stdout(capsys, [workbook, "--faults", "gremlins"])
        assert code == 2
        assert "known faults" in err

    def test_policy_choices_follow_allocator(self, workbook, capsys):
        from repro.teststand import ALLOCATION_POLICIES

        for policy in ALLOCATION_POLICIES:
            code, _, _ = self._stdout(capsys, [workbook, "--quiet",
                                               "--policy", policy])
            assert code == 0
        with pytest.raises(SystemExit):
            self._stdout(capsys, [workbook, "--policy", "not_a_policy"])

    def test_run_policy_choices_follow_allocator(self, workbook, tmp_path, capsys):
        from repro.cli import main_compile, main_run

        out_dir = str(tmp_path / "scripts")
        assert main_compile([workbook, out_dir]) == 0
        capsys.readouterr()
        script = f"{out_dir}/interior_illumination.xml"
        assert main_run([script, "--policy", "least_used", "--quiet"]) == 0
        with pytest.raises(SystemExit):
            main_run([script, "--policy", "not_a_policy"])
