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

import multiprocessing
import os
import sqlite3
import threading

import pytest

from repro.store import CaseRow, ResultStore, RunInfo, StoreError
from repro.targets import CampaignSpec, campaignable_dut_names, run_campaign


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


def test_stored_run_rerenders_byte_identically(recorded):
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
    and clears the checkpoints once the run records."""
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
            "SELECT COUNT(*) FROM checkpoints").fetchone()[0] == 0


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
