"""Tests for repro.store: the persistent, queryable result store.

The acceptance bar from the campaign-as-a-service issue: a campaign
recorded into the store re-renders its verdict table **byte-identically**
after a round trip (serial and async backends, which must agree with each
other too), ``diff_runs`` of two identical campaigns is empty, queries
slice the history by DUT / stand / verdict / time, and two writer threads
sharing one sqlite file never corrupt or lose a run.  A process keeps one
connection per store file: a resumed campaign plus its read-back opens it
once, and it follows the file through deletion, fork and ``close()``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.store import CaseRow, ResultStore, RunInfo, StoreError
from repro.targets import CampaignSpec, campaignable_dut_names, run_campaign
from repro.teststand.executor import ExecutionReport


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.db")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One store carrying the same wiper campaign twice: serial and async."""
    path = str(tmp_path_factory.mktemp("store") / "family.db")
    serial = run_campaign(CampaignSpec(dut="wiper_ecu", store=path))
    asynced = run_campaign(CampaignSpec(
        dut="wiper_ecu", backend="async", jobs=4, store=path))
    return path, serial, asynced


def test_run_campaign_records_and_assigns_run_id(recorded):
    path, serial, asynced = recorded
    assert serial.store_run_id is not None
    assert asynced.store_run_id is not None
    assert serial.store_run_id != asynced.store_run_id
    store = ResultStore(path)
    assert set(store.run_ids()) == {serial.store_run_id,
                                    asynced.store_run_id}


def test_stored_run_rerenders_byte_identically(recorded, tmp_path):
    path, serial, asynced = recorded
    store = ResultStore(path)
    live = f"{serial.table()}\n{serial.summary()}"
    for result in (serial, asynced):
        run = store.get_run(result.store_run_id)
        # the campaign fault table + summary: what repro-campaign printed
        assert run.render() == f"{result.table()}\n{result.summary()}"
        # the per-job verdict table of the underlying execution report
        assert run.verdict_table() == result.execution.verdict_table()
        # the stored document is the exact serialized report
        assert run.execution_report().to_dict() == result.execution.to_dict()
        # serial and async campaigns agree with each other, stored or live
        assert run.render() == live
    # Every target, checkpointed: a read-back shares the results of the
    # stored documents that repeat, and still renders each run exactly.
    resumed_path = str(tmp_path / "resumed.db")
    targets = [{"dut": name} for name in campaignable_dut_names()]
    targets.append({"composition": "lock+cluster"})
    for target in targets:
        plain = run_campaign(CampaignSpec(**target))
        result = run_campaign(CampaignSpec(store=resumed_path, resume=True,
                                           **target))
        run = ResultStore(resumed_path).get_run(result.store_run_id)
        assert run.render() == f"{plain.table()}\n{plain.summary()}"
        assert run.verdict_table() == plain.execution.verdict_table()
        assert run.execution_report().to_dict() == result.execution.to_dict()


def test_diff_runs_of_identical_campaigns_is_empty(recorded):
    path, serial, asynced = recorded
    store = ResultStore(path)
    diff = store.diff_runs(serial.store_run_id, asynced.store_run_id)
    assert diff.empty
    assert diff.changed == ()
    assert diff.only_a == () and diff.only_b == ()
    assert "no verdict deltas" in diff.table()


def test_diff_runs_between_different_duts_reports_deltas(store_path):
    wiper = run_campaign(CampaignSpec(dut="wiper_ecu", store=store_path))
    other = run_campaign(CampaignSpec(dut="interior_light_ecu",
                                      store=store_path))
    store = ResultStore(store_path)
    diff = store.diff_runs(wiper.store_run_id, other.store_run_id)
    assert not diff.empty
    assert diff.only_a and diff.only_b  # disjoint job sets
    assert str(wiper.store_run_id) in diff.summary()


def test_list_runs_and_metadata(recorded):
    path, serial, asynced = recorded
    store = ResultStore(path)
    infos = store.list_runs(dut="wiper_ecu")
    assert all(isinstance(info, RunInfo) for info in infos)
    assert {info.run_id for info in infos} >= {serial.store_run_id,
                                               asynced.store_run_id}
    by_id = {info.run_id: info for info in infos}
    assert by_id[serial.store_run_id].backend == "serial"
    assert by_id[asynced.store_run_id].backend == "async"
    for info in infos:
        assert info.dut == "wiper_ecu"
        assert info.jobs == len(serial.execution.results)
        assert info.repro_version
    assert store.list_runs(limit=1)[0].run_id == max(store.run_ids())


def test_query_slices_by_dut_stand_and_verdict(recorded):
    path, serial, _ = recorded
    store = ResultStore(path)
    rows = store.query(dut="wiper_ecu")
    assert rows and all(isinstance(row, CaseRow) for row in rows)
    assert {row.dut for row in rows} == {"wiper_ecu"}
    # case-insensitive match, as the lint rule X-UNSTORABLE-RESULT warns
    assert len(store.query(dut="WIPER_ECU")) == len(rows)
    passes = store.query(dut="wiper_ecu", verdict="pass")
    assert passes and all(row.verdict == "pass" for row in passes)
    assert store.query(dut="no_such_dut") == []
    assert store.query(since=float("inf")) == []
    stands = {row.stand for row in rows}
    assert len(store.query(dut="wiper_ecu", stand=stands.pop())) == len(rows)


def test_get_unknown_run_raises(store_path):
    store = ResultStore(store_path)
    with pytest.raises(StoreError):
        store.get_run(999)
    with pytest.raises(StoreError):
        store.diff_runs(1, 2)


def test_family_history_accumulates(store_path):
    """The whole body-electronics family recorded into one store."""
    run_ids = []
    for dut in campaignable_dut_names():
        result = run_campaign(CampaignSpec(dut=dut, store=store_path))
        run_ids.append(result.store_run_id)
    store = ResultStore(store_path)
    assert store.run_ids() == tuple(sorted(run_ids))
    infos = store.list_runs()
    assert {info.dut for info in infos} == set(campaignable_dut_names())
    # every stored run still re-renders
    for run_id in run_ids:
        assert "fault campaign:" in store.get_run(run_id).render()


def test_concurrent_writers_share_one_store(store_path):
    """Two threads recording into the same sqlite file: no lost runs, no
    corruption, every stored report intact."""
    results = [run_campaign(CampaignSpec(dut="wiper_ecu")),
               run_campaign(CampaignSpec(dut="interior_light_ecu"))]
    store = ResultStore(store_path)
    per_thread = 4
    recorded_ids: list[list[int]] = [[], []]
    errors: list[Exception] = []

    def write(slot: int) -> None:
        try:
            for _ in range(per_thread):
                recorded_ids[slot].append(
                    store.record_campaign(results[slot]))
        except Exception as exc:  # surfaced on the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(slot,))
               for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    all_ids = recorded_ids[0] + recorded_ids[1]
    assert len(all_ids) == 2 * per_thread
    assert len(set(all_ids)) == len(all_ids)
    assert store.run_ids() == tuple(sorted(all_ids))
    for slot in (0, 1):
        expected = results[slot].execution.to_dict()
        for run_id in recorded_ids[slot]:
            assert store.get_run(run_id).execution_report().to_dict() \
                == expected


def test_content_keyed_dedup_of_scripts_and_catalogues(recorded):
    """Recording the same campaign twice interns scripts/catalogue once."""
    path, serial, asynced = recorded
    with sqlite3.connect(path) as connection:
        scripts = connection.execute(
            "SELECT COUNT(*) FROM scripts").fetchone()[0]
        catalogues = connection.execute(
            "SELECT COUNT(*) FROM catalogues").fetchone()[0]
        campaigns = connection.execute(
            "SELECT COUNT(*) FROM campaigns").fetchone()[0]
    document = serial.execution.to_dict()
    assert scripts == len(document["scripts"])  # not 2x: content-keyed
    assert catalogues == 1
    # serial and async runs differ in backend/jobs, hence two campaign rows
    assert campaigns == 2


def test_memory_store_supports_threads():
    result = run_campaign(CampaignSpec(dut="wiper_ecu"))
    store = ResultStore(":memory:")
    ids = []

    def write():
        ids.append(store.record_campaign(result))

    threads = [threading.Thread(target=write) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(ids) == list(store.run_ids())
    assert store.get_run(ids[0]).render() == \
        f"{result.table()}\n{result.summary()}"


def test_composition_provenance_round_trips(store_path):
    """A composed campaign records which composition produced the run."""
    result = run_campaign(CampaignSpec(
        composition="lock+cluster",
        faults=("cluster.speed_tx_truncated", "lock.no_auto_lock"),
        store=store_path,
    ))
    store = ResultStore(store_path)
    run = store.get_run(result.store_run_id)
    assert run.campaign["composition"] == "lock+cluster"
    assert run.campaign["dut"] is None
    assert run.render() == f"{result.table()}\n{result.summary()}"
    # Single-DUT campaigns keep NULL composition provenance.
    single = run_campaign(CampaignSpec(
        dut="wiper_ecu", faults=("motor_stuck_off",), store=store_path))
    assert store.get_run(single.store_run_id).campaign["composition"] is None


def test_profiled_cli_campaign_records_and_resumes(store_path, capsys,
                                                   monkeypatch):
    """``repro-campaign --profile`` takes the same campaign path as a plain
    run: ``--store`` records the run, ``--resume`` checkpoints every job
    into an unfinished run that the final record finishes."""
    from repro.cli import main_campaign

    argv = ["--dut", "wiper_ecu", "--store", store_path, "--profile"]
    assert main_campaign(argv) == 0
    captured = capsys.readouterr()
    assert "profile: vm" in captured.err
    (run_id,) = ResultStore(store_path).run_ids()
    assert ResultStore(store_path).get_run(run_id).render() + "\n" \
        == captured.out

    saved = []
    save_checkpoint = ResultStore.save_checkpoint

    def counting_save(self, *args):
        saved.append(args)
        return save_checkpoint(self, *args)

    monkeypatch.setattr(ResultStore, "save_checkpoint", counting_save)
    assert main_campaign(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == captured.out
    assert saved
    assert len(ResultStore(store_path).run_ids()) == 2
    with sqlite3.connect(store_path) as connection:
        assert connection.execute(
            "SELECT COUNT(*) FROM jobs JOIN runs ON runs.id = jobs.run_id "
            "WHERE runs.resume_key IS NOT NULL").fetchone()[0] == 0


# ---------------------------------------------------------------------------
# Connection lifetime: one connection per store file per process
# ---------------------------------------------------------------------------

def _integrity(path: str) -> str:
    with sqlite3.connect(path) as connection:
        return connection.execute("PRAGMA integrity_check").fetchone()[0]


def test_resumed_campaign_and_readback_open_one_connection(store_path,
                                                           monkeypatch):
    opened = []
    connect = sqlite3.connect

    def counting_connect(*args, **kwargs):
        opened.append(args)
        return connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", counting_connect)
    result = run_campaign(CampaignSpec(dut="wiper_ecu", store=store_path,
                                       resume=True))
    ResultStore(store_path).get_run(result.store_run_id).render()
    assert len(opened) == 1


def test_store_follows_its_file_when_deleted(store_path):
    result = run_campaign(CampaignSpec(dut="wiper_ecu"))
    before = ResultStore(store_path)
    before.record_campaign(result)
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(store_path + suffix):
            os.remove(store_path + suffix)
    after = ResultStore(store_path)
    assert after.run_ids() == ()
    first = after.record_campaign(result)
    second = before.record_campaign(result)
    assert before.run_ids() == after.run_ids() == (first, second)
    with sqlite3.connect(store_path) as connection:
        assert connection.execute(
            "SELECT id FROM runs ORDER BY id").fetchall() == [(first,),
                                                              (second,)]
    assert _integrity(store_path) == "ok"


def _record_in_child(path, result):
    ResultStore(path).record_campaign(result)


def test_forked_child_records_on_its_own_connection(store_path):
    result = run_campaign(CampaignSpec(dut="wiper_ecu"))
    store = ResultStore(store_path)
    store.record_campaign(result)
    child = multiprocessing.get_context("fork").Process(
        target=_record_in_child, args=(store_path, result))
    # Fork mid-transaction, as when another thread forks pool workers
    # while this one records: the child must not inherit the held lock.
    with store._connect():
        child.start()
    child.join(timeout=30)
    alive = child.is_alive()
    if alive:
        child.kill()
    assert not alive
    assert child.exitcode == 0
    store.record_campaign(result)
    assert len(store.run_ids()) == 3
    assert _integrity(store_path) == "ok"


def test_closed_store_leaves_other_instances_working(store_path):
    result = run_campaign(CampaignSpec(dut="wiper_ecu"))
    first = ResultStore(store_path)
    second = ResultStore(store_path)
    run_id = first.record_campaign(result)
    first.close()
    assert second.get_run(run_id).render() == \
        f"{result.table()}\n{result.summary()}"
    again = second.record_campaign(result)
    assert second.run_ids() == (run_id, again)


# ---------------------------------------------------------------------------
# A checkpoint is a job row of the campaign's unfinished run
# ---------------------------------------------------------------------------

def _row_counts(path: str) -> dict[str, tuple[int, int]]:
    """``(row count, highest id)`` of every per-job table."""
    with sqlite3.connect(path) as connection:
        return {table: connection.execute(
                    f"SELECT COUNT(*), MAX(id) FROM {table}").fetchone()
                for table in ("jobs", "case_results", "step_results")}


def _interrupt_after(monkeypatch, method: str, calls: int, spec) -> None:
    """Run *spec*, raising KeyboardInterrupt (a stand-in for SIGKILL) right
    after the *calls*-th ``ResultStore.<method>`` call has returned."""
    original = getattr(ResultStore, method)
    seen = []

    def interrupting(self, *args, **kwargs):
        returned = original(self, *args, **kwargs)
        seen.append(args)
        if len(seen) == calls:
            raise KeyboardInterrupt
        return returned

    monkeypatch.setattr(ResultStore, method, interrupting)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec)
    monkeypatch.setattr(ResultStore, method, original)


def _counting_checkpoints(monkeypatch) -> list:
    saved = []
    original = ResultStore.save_checkpoint

    def counting(self, *args):
        saved.append(args)
        return original(self, *args)

    monkeypatch.setattr(ResultStore, "save_checkpoint", counting)
    return saved


def test_final_record_writes_no_row_a_checkpoint_wrote(store_path,
                                                       monkeypatch):
    """Killed after every job checkpointed but before the final record, a
    resumed campaign executes nothing, writes no per-job row and keeps the
    run id its first checkpoint took."""
    spec = CampaignSpec(dut="wiper_ecu", faults=("motor_stuck_off",),
                        store=store_path, resume=True)
    original = ResultStore.record_campaign

    def killed(self, *args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(ResultStore, "record_campaign", killed)
    with pytest.raises(KeyboardInterrupt):
        run_campaign(spec)
    monkeypatch.setattr(ResultStore, "record_campaign", original)
    with sqlite3.connect(store_path) as connection:
        (unfinished,) = connection.execute(
            "SELECT id FROM runs WHERE resume_key IS NOT NULL").fetchone()
    before = _row_counts(store_path)

    saved = _counting_checkpoints(monkeypatch)
    resumed = run_campaign(spec)
    assert saved == []
    assert _row_counts(store_path) == before
    assert resumed.store_run_id == unfinished
    assert ResultStore(store_path).get_run(unfinished).render() \
        == f"{resumed.table()}\n{resumed.summary()}"


def test_resume_key_ignores_how_the_default_stand_was_named(store_path,
                                                            monkeypatch):
    """A campaign started without ``stand`` resumes when the default stand
    is named explicitly: only the jobs it had not checkpointed run."""
    plain = run_campaign(CampaignSpec(dut="wiper_ecu"))
    _interrupt_after(monkeypatch, "save_checkpoint", 3,
                     CampaignSpec(dut="wiper_ecu", store=store_path,
                                  resume=True))
    saved = _counting_checkpoints(monkeypatch)
    resumed = run_campaign(CampaignSpec(dut="wiper_ecu", stand="big_rack",
                                        store=store_path, resume=True))
    assert len(resumed.execution) == 36
    assert len(saved) == 33
    text = f"{plain.table()}\n{plain.summary()}"
    assert f"{resumed.table()}\n{resumed.summary()}" == text
    assert ResultStore(store_path).get_run(resumed.store_run_id).render() \
        == text


def test_a_long_lived_store_serialises_each_script_once(store_path,
                                                        monkeypatch):
    """A script is a value, so its stored key is memoised on it: two
    checkpointed campaigns of one target into one store serialise each
    script once, for both resume keys, every checkpoint and both records,
    and their jobs share one row per script."""
    from repro import targets
    from repro._record import replace
    from repro.teststand import serialize

    serialised = []
    script_to_dict = serialize.script_to_dict

    def counted(script):
        serialised.append(script.name)
        return script_to_dict(script)

    monkeypatch.setattr(serialize, "script_to_dict", counted)
    wiper = targets.get_dut("wiper_ecu")
    # A fresh copy of the target compiles fresh scripts, with no memo yet.
    targets.register_dut(replace(wiper), replace_existing=True)
    try:
        spec = CampaignSpec(dut="wiper_ecu", faults=("motor_stuck_off",),
                            store=store_path, resume=True)
        first = run_campaign(spec).execution.results[0].job.script
        run_campaign(spec)
    finally:
        targets.register_dut(wiper, replace_existing=True)
    names = [script.name for script in
             targets.build_campaign(spec)[0].scripts]
    assert sorted(serialised) == sorted(names)
    with sqlite3.connect(store_path) as connection:
        rows = connection.execute(
            "SELECT name, content FROM scripts ORDER BY id").fetchall()
        used: dict[int, set[int]] = {}
        for run_id, script_id in connection.execute(
                "SELECT run_id, script_id FROM jobs"):
            used.setdefault(run_id, set()).add(script_id)
    assert [name for name, _ in rows] == names
    assert rows[0][1] == serialize.script_key(first)
    assert len(used) == 2 and len({frozenset(ids) for ids in used.values()}) == 1


def test_unfinished_runs_are_invisible_to_readers(store_path):
    result = run_campaign(CampaignSpec(dut="wiper_ecu",
                                       faults=("motor_stuck_off",)))
    store = ResultStore(store_path)
    finished = store.record_campaign(result)
    for job_result in result.execution.results[:3]:
        assert store.save_checkpoint("in-flight", job_result)
    with sqlite3.connect(store_path) as connection:
        (unfinished,) = connection.execute(
            "SELECT id FROM runs WHERE resume_key = 'in-flight'").fetchone()
    assert store.run_ids() == (finished,)
    assert [info.run_id for info in store.list_runs()] == [finished]
    assert [info.run_id for info in store.list_runs(dut="wiper_ecu")] \
        == [finished]
    assert {row.run_id for row in store.query()} == {finished}
    with pytest.raises(StoreError):
        store.get_run(unfinished)
    with pytest.raises(StoreError):
        store.diff_runs(finished, unfinished)
    assert len(store.load_checkpoints("in-flight")) == 3


def test_resumed_run_lists_as_the_newest_record(store_path, tmp_path,
                                               monkeypatch):
    """A resumed run keeps its first checkpoint's id but is recorded last:
    readers list it first, and the HTML site diffs it against the run
    recorded while it was interrupted, not the other way round."""
    from repro.service import generate_site

    spec = CampaignSpec(dut="wiper_ecu", store=store_path, resume=True)
    _interrupt_after(monkeypatch, "save_checkpoint", 3, spec)
    other = run_campaign(CampaignSpec(dut="wiper_ecu", store=store_path))
    resumed = run_campaign(spec)
    assert resumed.store_run_id < other.store_run_id
    store = ResultStore(store_path)
    assert [info.run_id for info in store.list_runs()] \
        == [resumed.store_run_id, other.store_run_id]
    assert store.query()[0].run_id == resumed.store_run_id
    written = generate_site(store, str(tmp_path / "site"))
    assert [os.path.basename(path) for path in written
            if os.path.basename(path).startswith("diff-")] \
        == [f"diff-{other.store_run_id}-vs-{resumed.store_run_id}.html"]


#: ``python -c`` body: run a small wiper campaign, open the store at
#: ``argv[1]``, say so, and once told to on stdin checkpoint job
#: ``argv[2]`` under the campaign key ``shared``.
_CHECKPOINT_WHEN_TOLD = """
import sys
from repro.store import ResultStore
from repro.targets import CampaignSpec, run_campaign
result = run_campaign(CampaignSpec(dut="wiper_ecu",
                                   faults=("motor_stuck_off",)))
store = ResultStore(sys.argv[1])
store.run_ids()
print("ready", flush=True)
sys.stdin.readline()
store.save_checkpoint("shared", result.execution.results[int(sys.argv[2])])
"""


def test_two_processes_checkpoint_into_one_unfinished_run(store_path):
    """Two processes take their first checkpoint under one key while a
    third holds the write lock: both wait for the lock with no run under
    the key, and the second must join the first one's run."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    children = [subprocess.Popen(
        [sys.executable, "-c", _CHECKPOINT_WHEN_TOLD, store_path, str(slot)],
        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for slot in range(2)]
    holder = None
    try:
        for child in children:
            assert child.stdout.readline() == "ready\n"
        holder = sqlite3.connect(store_path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        for child in children:
            child.stdin.write("go\n")
            child.stdin.flush()
        time.sleep(0.5)  # both now wait on the lock held here
        holder.execute("COMMIT")
        assert [child.wait(timeout=60) for child in children] == [0, 0]
    finally:
        if holder is not None:
            holder.close()
        for child in children:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stdout.close()
    with sqlite3.connect(store_path) as connection:
        assert connection.execute(
            "SELECT COUNT(*) FROM runs WHERE resume_key = 'shared'"
        ).fetchone() == (1,)
    assert len(ResultStore(store_path).load_checkpoints("shared")) == 2


# ---------------------------------------------------------------------------
# Schema 3 migrates on open; other schemas are refused untouched
# ---------------------------------------------------------------------------

#: The table schema 3 kept pending checkpoints in.
_SCHEMA_3_CHECKPOINTS = """
DROP INDEX idx_runs_resume;
ALTER TABLE runs DROP COLUMN resume_key;
CREATE TABLE checkpoints (
    id           INTEGER PRIMARY KEY,
    campaign_key TEXT NOT NULL,
    job_key      TEXT NOT NULL,
    payload      TEXT NOT NULL,
    created_at   REAL NOT NULL,
    UNIQUE (campaign_key, job_key)
);
CREATE INDEX idx_checkpoints_campaign ON checkpoints(campaign_key);
UPDATE meta SET value = '3' WHERE key = 'store_schema';
"""


def _downgrade_to_schema_3(path: str) -> None:
    """Rewrite a schema-4 store the way schema 3 held it: each unfinished
    run's jobs become single-job report documents in ``checkpoints``."""
    store = ResultStore(path)
    with sqlite3.connect(path) as connection:
        keys = [key for (key,) in connection.execute(
            "SELECT resume_key FROM runs WHERE resume_key IS NOT NULL")]
    pending = [
        (key, job_id, json.dumps(ExecutionReport([job_result]).to_dict()))
        for key in keys
        for job_id, job_result in store.load_checkpoints(key).items()
    ]
    for key in keys:
        store.clear_checkpoints(key)
    store.close()
    connection = sqlite3.connect(path)
    connection.executescript(_SCHEMA_3_CHECKPOINTS)
    connection.executemany(
        "INSERT INTO checkpoints (campaign_key, job_key, payload, created_at)"
        " VALUES (?, ?, ?, 0.0)", pending)
    connection.commit()
    connection.close()


def _schema_3_store(path: str, monkeypatch) -> tuple[str, CampaignSpec]:
    """A schema-3 store holding one recorded run and a campaign stopped
    after 3 checkpoints; returns the recorded run's rendering and the
    stopped campaign's spec."""
    recorded = run_campaign(CampaignSpec(dut="wiper_ecu", store=path))
    rendered = ResultStore(path).get_run(recorded.store_run_id).render()
    spec = CampaignSpec(dut="wiper_ecu", store=path, resume=True)
    _interrupt_after(monkeypatch, "save_checkpoint", 3, spec)
    _downgrade_to_schema_3(path)
    with sqlite3.connect(path) as connection:
        assert connection.execute(
            "SELECT value FROM meta").fetchone() == ("3",)
        assert connection.execute(
            "SELECT COUNT(*) FROM checkpoints").fetchone() == (3,)
    return rendered, spec


def test_schema_3_store_migrates_on_open(store_path, monkeypatch):
    clean = run_campaign(CampaignSpec(dut="wiper_ecu"))
    rendered, spec = _schema_3_store(store_path, monkeypatch)

    saved = _counting_checkpoints(monkeypatch)
    resumed = run_campaign(spec)
    # Only the jobs the three migrated checkpoints lack were executed.
    assert len(saved) == len(clean.execution.results) - 3
    assert f"{resumed.table()}\n{resumed.summary()}" \
        == f"{clean.table()}\n{clean.summary()}"
    assert resumed.execution.verdict_table() \
        == clean.execution.verdict_table()
    store = ResultStore(store_path)
    first, second = store.run_ids()
    assert store.get_run(first).render() == rendered
    assert store.get_run(second).render() == rendered
    with sqlite3.connect(store_path) as connection:
        assert connection.execute(
            "SELECT value FROM meta").fetchone() == ("4",)
        assert connection.execute(
            "SELECT name FROM sqlite_master WHERE name = 'checkpoints'"
        ).fetchone() is None


#: ``python -c`` body: import the store, say so, and open the store at
#: ``argv[1]`` once told to on stdin.
_OPEN_WHEN_TOLD = """
import sys
from repro.store import ResultStore
print("ready", flush=True)
sys.stdin.readline()
ResultStore(sys.argv[1])
"""


def test_two_processes_migrate_a_schema_3_store_once(store_path,
                                                     monkeypatch):
    _schema_3_store(store_path, monkeypatch)
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    children = [subprocess.Popen(
        [sys.executable, "-c", _OPEN_WHEN_TOLD, store_path], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for _ in range(2)]
    try:
        for child in children:
            assert child.stdout.readline() == "ready\n"
        for child in children:  # both open the schema-3 file at once
            child.stdin.write("go\n")
            child.stdin.flush()
        assert [child.wait(timeout=60) for child in children] == [0, 0]
    finally:
        for child in children:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stdout.close()
    with sqlite3.connect(store_path) as connection:
        assert connection.execute(
            "SELECT value FROM meta").fetchone() == ("4",)
        assert connection.execute(
            "SELECT COUNT(*) FROM jobs JOIN runs ON runs.id = jobs.run_id "
            "WHERE runs.resume_key IS NOT NULL").fetchone() == (3,)
    assert _integrity(store_path) == "ok"


def test_store_of_another_schema_is_refused_untouched(store_path):
    connection = sqlite3.connect(store_path)
    connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, "
                       "value TEXT NOT NULL)")
    connection.execute("INSERT INTO meta VALUES ('store_schema', '2')")
    connection.commit()
    connection.close()
    before = Path(store_path).read_bytes()
    with pytest.raises(StoreError, match="uses schema 2"):
        ResultStore(store_path)
    assert Path(store_path).read_bytes() == before
    assert sorted(os.listdir(os.path.dirname(store_path))) \
        == [os.path.basename(store_path)]


def test_two_records_start_git_at_most_once(store_path, tmp_path,
                                            monkeypatch):
    # A working directory no earlier record ran in.
    monkeypatch.chdir(tmp_path)
    started = []
    run = subprocess.run

    def counting_run(args, *rest, **kwargs):
        if args[0] == "git":
            started.append(args)
        return run(args, *rest, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    result = run_campaign(CampaignSpec(dut="wiper_ecu",
                                       faults=("motor_stuck_off",)))
    store = ResultStore(store_path)
    store.record_campaign(result)
    store.record_campaign(result)
    assert len(started) <= 1


@pytest.mark.parametrize("backend, jobs", [("serial", 1), ("process", 2)])
def test_stored_texts_are_json_of_the_live_documents(tmp_path, backend, jobs):
    """Every stored setup and step-actions text of a checkpointed campaign
    is ``json.dumps`` of the live result's documents, for every target."""
    from repro.teststand.serialize import result_to_dict

    targets = [{"dut": name} for name in campaignable_dut_names()]
    targets.append({"composition": "lock+cluster"})
    for number, fields in enumerate(targets):
        path = str(tmp_path / f"{number}.db")
        result = run_campaign(CampaignSpec(
            backend=backend, jobs=jobs, store=path, resume=True, **fields))
        setups, actions = {}, {}
        for ordinal, job_result in enumerate(result.execution.results):
            document = result_to_dict(job_result.result)
            setups[ordinal] = json.dumps(document["setup"])
            for step, step_document in enumerate(document["steps"]):
                actions[ordinal, step] = json.dumps(step_document["actions"])
        with sqlite3.connect(path) as connection:
            stored_setups = dict(connection.execute(
                "SELECT j.ordinal, c.setup FROM jobs j "
                "JOIN case_results c ON c.job_id = j.id WHERE j.run_id = ?",
                (result.store_run_id,)))
            stored_actions = {
                (job, step): text for job, step, text in connection.execute(
                    "SELECT j.ordinal, s.ordinal, s.actions FROM jobs j "
                    "JOIN case_results c ON c.job_id = j.id "
                    "JOIN step_results s ON s.case_id = c.id "
                    "WHERE j.run_id = ?", (result.store_run_id,))}
        assert stored_setups == setups, fields
        assert stored_actions == actions, fields
