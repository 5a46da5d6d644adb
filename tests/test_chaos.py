"""Tests for the chaos harness and the executor's resilience machinery.

Covers the error taxonomy and retry classification, deterministic backoff,
per-job deadlines (sync and async), stand quarantine, seeded fault
schedules, process-worker death recovery, store hardening (WAL, bounded
write retry, checkpoints) and campaign checkpoint/resume.  The
cross-backend byte-identity of chaotic campaigns lives in
``test_parity_matrix.py``; this module keeps the feature-level behaviour.

The process-backend tests rely on module-level factories (anything a job
carries must be picklable to cross a process boundary).
"""

from __future__ import annotations

import asyncio
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import chaos
from repro.core import Compiler
from repro.core.errors import (
    ConfigurationError,
    InstrumentIOError,
    JobTimeoutError,
    TransientError,
    is_transient,
)
from repro.dut import InteriorLightEcu
from repro.methods.base import MethodOutcome
from repro.paper import interior_harness, paper_signal_set, paper_suite
from repro.store import ResultStore
from repro.targets import CampaignSpec, CapabilityGapError, run_campaign
from repro.teststand import (
    AsyncExecutor,
    ResiliencePolicy,
    SerialExecutor,
    Verdict,
    build_paper_stand,
    expand_jobs,
    make_executor,
    run_jobs,
)
from repro.teststand.executor import _backoff_seconds


def paper_scripts():
    return Compiler().compile_suite(paper_suite())


# -- module-level factories (picklable; see module docstring) ---------------

def config_error_ecu():
    raise ConfigurationError("bench miswired: supply on the wrong rail")


def capability_gap_ecu():
    raise CapabilityGapError("paper", ("get_i",), dut="interior_light_ecu")


def flaky_io_ecu():
    raise InstrumentIOError("bus dropped the frame")


def socket_timeout_ecu():
    raise TimeoutError("stand socket timed out")


def slow_ecu():
    time.sleep(0.5)
    return InteriorLightEcu()


def _jobs(ecu_factory, groups=1):
    names = {f"g{i}": ecu_factory for i in range(groups)} \
        if groups > 1 else {"": ecu_factory}
    return expand_jobs(
        paper_scripts(), paper_signal_set(), {"": build_paper_stand},
        interior_harness, names,
    )


FAST = ResiliencePolicy(backoff_base=0.0, jitter=0.0)

#: Both drivers of the one retry loop: the blocking one and the awaiting one.
BOTH_DRIVERS = pytest.mark.parametrize(
    "executor", (SerialExecutor(), AsyncExecutor(concurrency=1)),
    ids=("serial", "async"))


# ---------------------------------------------------------------------------
# Error taxonomy and retry classification
# ---------------------------------------------------------------------------

class TestClassification:
    def test_taxonomy(self):
        assert is_transient(TransientError("x"))
        assert is_transient(InstrumentIOError("x"))
        # Unknown exception types must stay transient: a conservative
        # classifier that failed unknown errors fast would regress the
        # executor's long-standing retry-on-RuntimeError contract.
        assert is_transient(RuntimeError("x"))
        assert not is_transient(ConfigurationError("x"))
        assert not is_transient(CapabilityGapError("paper", ("get_i",)))
        assert not is_transient(JobTimeoutError("x", deadline=1.0))

    @BOTH_DRIVERS
    @pytest.mark.parametrize(
        "factory,name",
        ((config_error_ecu, "ConfigurationError"),
         (capability_gap_ecu, "CapabilityGapError")),
        ids=("configuration", "capability_gap"))
    def test_permanent_errors_fail_fast(self, factory, name, executor):
        """Regression: permanent errors must not burn the retry budget."""
        report = run_jobs(_jobs(factory), executor,
                          resilience=ResiliencePolicy(
                              max_attempts=4, backoff_base=0.0))
        job_result = report.results[0]
        assert job_result.attempts == 1
        assert job_result.result is None
        assert name in job_result.error
        assert job_result.verdict is Verdict.ERROR

    @BOTH_DRIVERS
    def test_retry_exhaustion_reports_last_error(self, executor):
        report = run_jobs(_jobs(flaky_io_ecu), executor,
                          resilience=ResiliencePolicy(
                              max_attempts=3, backoff_base=0.0))
        job_result = report.results[0]
        assert job_result.attempts == 3
        assert job_result.result is None
        assert "InstrumentIOError" in job_result.error
        assert "bus dropped the frame" in job_result.error
        assert job_result.verdict is Verdict.ERROR

    def test_policy_validation(self):
        assert type(ResiliencePolicy(max_attempts=3.0).max_attempts) is int
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(deadline=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(quarantine_after=-1)


class TestBackoff:
    def test_deterministic_and_bounded(self):
        policy = ResiliencePolicy(backoff_base=0.1, backoff_factor=2.0,
                                  backoff_max=1.0, jitter=0.25, seed=7)
        first = _backoff_seconds(policy, "g/script#0", 1)
        assert first == _backoff_seconds(policy, "g/script#0", 1)
        assert 0.075 <= first <= 0.125
        # Exponential growth clips at backoff_max (+/- jitter).
        assert _backoff_seconds(policy, "g/script#0", 9) <= 1.25
        # Different seeds and jobs draw different jitter.
        other = ResiliencePolicy(backoff_base=0.1, backoff_factor=2.0,
                                 backoff_max=1.0, jitter=0.25, seed=8)
        assert {_backoff_seconds(other, "g/script#0", 1),
                _backoff_seconds(policy, "g/other#1", 1)} != {first}

    def test_zero_jitter_is_exact(self):
        policy = ResiliencePolicy(backoff_base=0.05, backoff_factor=2.0,
                                  backoff_max=2.0, jitter=0.0)
        assert _backoff_seconds(policy, "j", 1) == pytest.approx(0.05)
        assert _backoff_seconds(policy, "j", 3) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class TestDeadline:
    def test_sync_deadline_fails_fast(self):
        report = run_jobs(_jobs(slow_ecu), SerialExecutor(),
                          resilience=ResiliencePolicy(
                              max_attempts=3, backoff_base=0.0,
                              deadline=0.05))
        job_result = report.results[0]
        # A blown deadline is permanent: the budget is shared across
        # attempts, so attempt two would blow it again.
        assert job_result.attempts == 1
        assert "JobTimeoutError" in job_result.error
        assert "0.05 s" in job_result.error

    def test_async_deadline_fails_fast(self):
        # The async path needs a *cancellable* hang; a chaos-injected
        # instrument hang awaits on the event loop, exactly what
        # asyncio.wait_for can interrupt.
        policy = ResiliencePolicy(
            max_attempts=2, backoff_base=0.0, deadline=0.05,
            chaos=chaos.ChaosPolicy(
                seed=1,
                profile=chaos.ChaosProfile(
                    instrument_hang_rate=1.0, instrument_hang_seconds=5.0),
            ),
        )
        report = run_jobs(_jobs(InteriorLightEcu),
                          make_executor("async", 1, concurrency=2),
                          resilience=policy)
        job_result = report.results[0]
        assert job_result.attempts == 1
        assert "JobTimeoutError" in job_result.error

    @BOTH_DRIVERS
    def test_job_timeout_error_is_retried_not_a_deadline(self, executor):
        """A TimeoutError the job raises itself is an ordinary transient
        error, not a lapse of the job's deadline."""
        report = run_jobs(_jobs(socket_timeout_ecu), executor,
                          resilience=ResiliencePolicy(
                              max_attempts=3, backoff_base=0.0,
                              deadline=5.0))
        job_result = report.results[0]
        assert job_result.attempts == 3
        assert "stand socket timed out" in job_result.error

    @BOTH_DRIVERS
    def test_backoff_stops_at_the_deadline(self, executor):
        """The deadline bounds the backoff too: a 1 s backoff after a
        failure is cut at what is left of a 0.2 s budget."""
        report = run_jobs(_jobs(flaky_io_ecu), executor,
                          resilience=ResiliencePolicy(
                              backoff_base=1.0, jitter=0.0, deadline=0.2))
        job_result = report.results[0]
        assert "JobTimeoutError" in job_result.error
        assert job_result.attempts == 2
        assert job_result.wall_time < 0.45


# ---------------------------------------------------------------------------
# Quarantine
# ---------------------------------------------------------------------------

class TestQuarantine:
    @BOTH_DRIVERS
    def test_circuit_breaker_reports_instead_of_executing(self, executor):
        jobs = _jobs(flaky_io_ecu, groups=5)
        report = run_jobs(jobs, executor,
                          resilience=ResiliencePolicy(
                              max_attempts=1, backoff_base=0.0,
                              quarantine_after=2))
        results = report.results
        # The first two jobs fail for real and trip the breaker...
        assert [jr.attempts for jr in results[:2]] == [1, 1]
        assert all("InstrumentIOError" in jr.error for jr in results[:2])
        # ...the rest are reported without ever executing.
        assert all(jr.attempts == 0 for jr in results[2:])
        assert all("StandQuarantinedError" in jr.error for jr in results[2:])
        assert all("quarantined after 2 consecutive" in jr.error
                   for jr in results[2:])

    @BOTH_DRIVERS
    def test_success_resets_the_counter(self, executor):
        failures = {"left": 1}

        def one_failure_ecu():
            if failures["left"] > 0:
                failures["left"] -= 1
                raise InstrumentIOError("one-shot")
            return InteriorLightEcu()

        report = run_jobs(_jobs(one_failure_ecu, groups=4), executor,
                          resilience=ResiliencePolicy(
                              max_attempts=1, backoff_base=0.0,
                              quarantine_after=2))
        assert [jr.attempts for jr in report.results] == [1, 1, 1, 1]
        assert report.results[0].error and report.ok is False
        assert all(jr.result is not None for jr in report.results[1:])


# ---------------------------------------------------------------------------
# Chaos schedules
# ---------------------------------------------------------------------------

class TestChaosSchedules:
    def test_schedule_is_pure_function_of_key(self):
        policy = chaos.ChaosPolicy.from_profile("flaky-instruments", seed=42)
        a = policy.schedule_for("g/script#0", 1)
        b = policy.schedule_for("g/script#0", 1)
        assert (a.fault_call, a.hang_call, a.glitch_call, a.kill_call) \
            == (b.fault_call, b.hang_call, b.glitch_call, b.kill_call)

    def test_faults_confined_to_first_attempts(self):
        """faulty_attempts=1 keeps every injection retry-recoverable."""
        policy = chaos.ChaosPolicy.from_profile("flaky-instruments", seed=42)
        faulted = sum(
            policy.schedule_for(f"g/s#{i}", 1).fault_call >= 0
            for i in range(50)
        )
        assert faulted > 20  # the 0.8 rate actually fires...
        assert all(
            policy.schedule_for(f"g/s#{i}", 2).fault_call == -1
            for i in range(50)
        )  # ...and never on the retry attempt

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos profile"):
            chaos.ChaosPolicy.from_profile("gremlins")

    def test_without_worker_kill(self):
        policy = chaos.ChaosPolicy.from_profile("fragile-workers", seed=1)
        stripped = policy.without_worker_kill()
        assert stripped.profile.worker_kill_rate == 0.0
        assert stripped.seed == policy.seed
        inert = chaos.ChaosPolicy.from_profile("flaky-store")
        assert inert.without_worker_kill() is inert

    def test_glitched_flips_verdict_and_annotates(self):
        outcome = MethodOutcome(method="get_u", passed=True, detail="12.0 V")
        flipped = chaos.glitched(outcome)
        assert flipped.passed is False
        assert "chaos: glitched reading" in flipped.detail
        assert chaos.glitched(flipped).passed is True

    def test_install_is_idempotent_and_uninstall_clears(self):
        policy = chaos.ChaosPolicy.from_profile("flaky-store", seed=5)
        chaos.install(policy)
        try:
            assert chaos.ACTIVE == policy
            chaos.install(policy)  # same value: no state reset
            assert chaos.ACTIVE == policy
        finally:
            chaos.uninstall()
        assert chaos.ACTIVE is None
        # All hooks are no-ops without an installed policy.
        chaos.on_store_commit()
        chaos.maybe_service_crash()
        assert chaos.on_instrument_call() == (0.0, False)


class TestChaosExecution:
    def test_injected_faults_are_absorbed_by_retries(self):
        policy = ResiliencePolicy(
            max_attempts=3, backoff_base=0.0,
            chaos=chaos.ChaosPolicy.from_profile("flaky-instruments", seed=42),
        )
        clean = run_jobs(_jobs(InteriorLightEcu, groups=4), SerialExecutor())
        chaotic = run_jobs(_jobs(InteriorLightEcu, groups=4),
                           SerialExecutor(), resilience=policy)
        assert chaotic.ok
        assert chaotic.verdict_table() == clean.verdict_table()
        assert any(jr.attempts > 1 for jr in chaotic.results)
        assert chaos.ACTIVE is None  # run_jobs uninstalls afterwards

    def test_process_worker_death_recovery(self):
        """Chaos kills pool workers mid-job; the executor respawns the pool
        and redelivers the unfinished chunks (with kills stripped, so the
        deterministic schedule cannot starve the batch)."""
        policy = ResiliencePolicy(
            max_attempts=3, backoff_base=0.0,
            chaos=chaos.ChaosPolicy.from_profile("fragile-workers", seed=7),
        )
        clean = run_jobs(_jobs(InteriorLightEcu, groups=4), SerialExecutor())
        report = run_jobs(_jobs(InteriorLightEcu, groups=4),
                          make_executor("process", 2), resilience=policy)
        assert report.ok
        assert report.verdict_table() == clean.verdict_table()

    def test_async_cancellation_mid_injection(self):
        """Cancelling a job whose schedule is mid-hang propagates the
        cancellation: the job is abandoned, never retried or reported as a
        transient error."""
        from repro.teststand.backends import _aexecute_with_retries

        policy = ResiliencePolicy(
            max_attempts=3, backoff_base=0.0,
            chaos=chaos.ChaosPolicy(
                seed=1,
                profile=chaos.ChaosProfile(
                    instrument_hang_rate=1.0, instrument_hang_seconds=30.0),
            ),
        )

        async def run_and_cancel():
            task = asyncio.ensure_future(
                _aexecute_with_retries(_jobs(InteriorLightEcu)[0], policy))
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        try:
            asyncio.run(run_and_cancel())
        finally:
            chaos.uninstall()


# ---------------------------------------------------------------------------
# Store hardening
# ---------------------------------------------------------------------------

def _small_spec(**overrides):
    base = dict(dut="interior_light_ecu", faults=("lamp_stuck_off",))
    base.update(overrides)
    return CampaignSpec(**base)


_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
}

#: Job rows of unfinished runs: the checkpoints of campaigns in flight.
_CHECKPOINTED_JOBS = ("SELECT COUNT(*) FROM jobs JOIN runs "
                      "ON runs.id = jobs.run_id "
                      "WHERE runs.resume_key IS NOT NULL")

#: ``python -c`` body: run ``repro-campaign`` with the given arguments and
#: SIGKILL this process as soon as its third checkpoint has committed.
_SIGKILL_AFTER_THIRD_CHECKPOINT = """
import os, signal, sys
from repro.cli import main_campaign
from repro.store import ResultStore

save = ResultStore.save_checkpoint
saved = []

def save_then_die(self, campaign_key, job_result):
    stored = save(self, campaign_key, job_result)
    saved.append(stored)
    if len(saved) == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return stored

ResultStore.save_checkpoint = save_then_die
main_campaign(sys.argv[1:])
"""


def _write_concurrently(path: str, policy: chaos.ChaosPolicy | None = None,
                        writers: int = 8) -> None:
    """*writers* threads (more than cores, on one shared connection) each
    record a run into *path* and checkpoint every job under a key of their
    own, with *policy* installed while they write; every run and every
    checkpointed job must land exactly once."""
    result = run_campaign(_small_spec())
    job_ids = {jr.job.job_id for jr in result.execution.results}
    run_ids = []
    errors = []
    # All open the fresh file at once: the open (DDL, WAL switch)
    # races the other writers, not just the recording transactions.
    start = threading.Barrier(writers)

    def write(slot):
        try:
            start.wait()
            store = ResultStore(path)
            run_ids.append(store.record_campaign(result, _small_spec()))
            for jr in result.execution.results:
                store.save_checkpoint(f"writer-{slot}", jr)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(slot,))
               for slot in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    if policy is not None:
        chaos.install(policy)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        chaos.uninstall()
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(set(run_ids)) == writers
    store = ResultStore(path)
    assert store.run_ids() == tuple(sorted(run_ids))
    for slot in range(writers):
        assert set(store.load_checkpoints(f"writer-{slot}")) == job_ids
    with sqlite3.connect(path) as conn:
        per_run = conn.execute(
            "SELECT COUNT(jobs.id) FROM runs LEFT JOIN jobs "
            "ON jobs.run_id = runs.id GROUP BY runs.id").fetchall()
    assert per_run == [(len(job_ids),)] * (2 * writers)


class TestStoreHardening:
    def test_file_store_runs_in_wal_mode(self, tmp_path):
        path = str(tmp_path / "wal.db")
        store = ResultStore(path)
        store.record_campaign(run_campaign(_small_spec()), _small_spec())
        with sqlite3.connect(path) as conn:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        # The long-lived connection keeps FULL sync: every commit (each
        # checkpoint) fsyncs the WAL.
        with store._connect() as conn:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 2

    def test_write_retry_absorbs_injected_lock_errors(self, tmp_path):
        store = ResultStore(str(tmp_path / "locked.db"))
        result = run_campaign(_small_spec())
        chaos.install(chaos.ChaosPolicy(
            seed=3, profile=chaos.ChaosProfile(store_fail_rate=1.0)))
        try:
            run_id = store.record_campaign(result, _small_spec())
        finally:
            chaos.uninstall()
        assert store.get_run(run_id) is not None

    def test_concurrent_writers_share_one_file(self, tmp_path):
        _write_concurrently(str(tmp_path / "shared.db"))

    def test_concurrent_writers_share_one_file_under_flaky_store(self,
                                                                 tmp_path):
        _write_concurrently(
            str(tmp_path / "flaky.db"),
            chaos.ChaosPolicy.from_profile("flaky-store", seed=5))

    def test_concurrent_writers_share_one_file_under_murphy(self, tmp_path):
        _write_concurrently(
            str(tmp_path / "murphy.db"),
            chaos.ChaosPolicy.from_profile("murphy", seed=5))

    def test_checkpoint_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "ckpt.db"))
        result = run_campaign(_small_spec())
        job_results = result.execution.results
        for jr in job_results:
            assert store.save_checkpoint("campaign-x", jr)
        restored = store.load_checkpoints("campaign-x")
        assert set(restored) == {jr.job.job_id for jr in job_results}
        one = restored[job_results[0].job.job_id]
        assert one.result.verdict == job_results[0].result.verdict
        assert one.attempts == job_results[0].attempts
        assert store.clear_checkpoints("campaign-x") == len(job_results)
        assert store.load_checkpoints("campaign-x") == {}

    def test_failed_jobs_are_not_checkpointed(self, tmp_path):
        store = ResultStore(str(tmp_path / "skip.db"))
        report = run_jobs(_jobs(flaky_io_ecu), SerialExecutor(),
                          resilience=FAST)
        assert store.save_checkpoint("k", report.results[0]) is False
        assert store.load_checkpoints("k") == {}


class TestResume:
    def test_resume_requires_store(self):
        with pytest.raises(ConfigurationError, match="store"):
            run_campaign(_small_spec(resume=True))

    def test_killed_campaign_resumes_byte_identically(self, tmp_path,
                                                      monkeypatch):
        reference = run_campaign(_small_spec())
        path = str(tmp_path / "resume.db")
        spec = _small_spec(store=path, resume=True)

        original = ResultStore.save_checkpoint
        calls = {"n": 0}

        def dying(self, campaign_key, job_result):
            saved = original(self, campaign_key, job_result)
            calls["n"] += 1
            if calls["n"] >= 3:
                raise KeyboardInterrupt  # stands in for SIGKILL
            return saved

        monkeypatch.setattr(ResultStore, "save_checkpoint", dying)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec)
        monkeypatch.setattr(ResultStore, "save_checkpoint", original)

        with sqlite3.connect(path) as conn:
            persisted = conn.execute(_CHECKPOINTED_JOBS).fetchone()[0]
        assert persisted == 3

        resumed = run_campaign(spec)
        assert resumed.table() == reference.table()
        assert resumed.execution.verdict_table() \
            == reference.execution.verdict_table()
        assert resumed.store_run_id is not None
        with sqlite3.connect(path) as conn:
            assert conn.execute(_CHECKPOINTED_JOBS).fetchone()[0] == 0

    def test_sigkilled_campaign_resumes_byte_identically(self, tmp_path,
                                                         capsys):
        from repro.cli import main_campaign

        path = str(tmp_path / "killed.db")
        argv = ["--dut", "wiper_ecu", "--store", path, "--resume"]
        child = subprocess.run(
            [sys.executable, "-c", _SIGKILL_AFTER_THIRD_CHECKPOINT, *argv],
            capture_output=True, text=True, env=_CHILD_ENV, timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        # The checkpoints sit in the WAL nobody merged; a reader sees them.
        with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as conn:
            assert conn.execute(_CHECKPOINTED_JOBS).fetchone()[0] == 3

        assert main_campaign(["--dut", "wiper_ecu"]) == 0
        clean = capsys.readouterr().out
        assert main_campaign(argv) == 0
        assert capsys.readouterr().out == clean
        (run_id,) = ResultStore(path).run_ids()
        assert ResultStore(path).get_run(run_id).render() + "\n" == clean
        with sqlite3.connect(path) as conn:
            assert conn.execute(_CHECKPOINTED_JOBS).fetchone()[0] == 0
            assert conn.execute(
                "PRAGMA integrity_check").fetchone()[0] == "ok"

    def test_exited_campaign_leaves_only_the_database_file(self, tmp_path):
        """Also with the heap frozen at exit: the store's exit handler
        still merges the write-ahead log."""
        path = tmp_path / "exited.db"
        code = ("import sys; from repro.cli import main_campaign; "
                "sys.exit(main_campaign(sys.argv[1:]))")
        child = subprocess.run(
            [sys.executable, "-c", code, "--dut", "wiper_ecu",
             "--store", str(path), "--resume"],
            capture_output=True, text=True, env=_CHILD_ENV, timeout=120,
            check=True,
        )
        clean = run_campaign(CampaignSpec(dut="wiper_ecu"))
        assert child.stdout == f"{clean.table()}\n{clean.summary()}\n"
        assert path.exists()
        assert not Path(f"{path}-wal").exists()
        assert not Path(f"{path}-shm").exists()


# ---------------------------------------------------------------------------
# Service worker crashes
# ---------------------------------------------------------------------------

class TestServiceResilience:
    def test_worker_restarts_survive_injected_crashes(self):
        from repro.service import CampaignService

        chaos.install(chaos.ChaosPolicy(
            seed=3, profile=chaos.ChaosProfile(service_crash_rate=0.9)))
        try:
            with CampaignService(":memory:") as service:
                ids = [service.submit(_small_spec()) for _ in range(3)]
                snapshots = [service.wait(i, timeout=120) for i in ids]
                assert [s["state"] for s in snapshots] == ["done"] * 3
                assert all(s["run_id"] for s in snapshots)
                assert service.worker_restarts >= 1
        finally:
            chaos.uninstall()


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------

class TestChaosCli:
    def _stdout(self, capsys, argv):
        from repro.cli import main_campaign

        code = main_campaign(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_chaos_run_is_byte_identical_to_clean(self, capsys):
        base = ["--dut", "interior_light_ecu", "--faults", "lamp_stuck_off"]
        code_clean, out_clean, _ = self._stdout(capsys, base)
        code_chaos, out_chaos, err = self._stdout(
            capsys, base + ["--chaos-seed", "42",
                            "--chaos-profile", "flaky-instruments",
                            "--retries", "2"])
        assert code_clean == 0 and code_chaos == 0
        assert out_chaos == out_clean
        assert "needed retries" in err

    def test_resume_requires_store_flag(self, capsys):
        from repro.cli import main_campaign

        with pytest.raises(SystemExit):
            main_campaign(["--dut", "interior_light_ecu", "--resume"])
        assert "--store" in capsys.readouterr().err

    def test_chaos_profile_requires_seed(self, capsys):
        from repro.cli import main_campaign

        with pytest.raises(SystemExit):
            main_campaign(["--dut", "interior_light_ecu",
                           "--chaos-profile", "murphy"])
        assert "--chaos-seed" in capsys.readouterr().err

    def test_deadline_spec_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(dut="interior_light_ecu", deadline=-1.0)
        with pytest.raises(ConfigurationError):
            CampaignSpec(dut="interior_light_ecu", chaos_profile="gremlins")
