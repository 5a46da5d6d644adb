"""SQLite schema of the persistent result store.

The store is deliberately built on the stdlib :mod:`sqlite3` module - no
new dependency - with a normalized schema (one row per run / job / case /
step, content-deduplicated scripts and fault catalogues) so verdicts stay
queryable with plain SQL.  ``docs/result-store.md`` carries the diagram
and a query cookbook; the short version:

``meta``
    key/value pairs; carries the on-disk ``store_schema`` version.
``scripts``
    one row per *distinct* compiled test script, keyed by a content
    fingerprint (the canonical JSON of
    :func:`repro.teststand.serialize.script_to_dict`).  Campaigns share
    one script across dozens of jobs and re-runs share it across runs;
    the store keeps a single copy.
``catalogues``
    one row per distinct fault-catalogue selection (name / description /
    expected_detected triples, selection order preserved), deduplicated
    the same way.
``campaigns``
    one row per distinct campaign *configuration* (DUT, stand, policy,
    backend sizing, catalogue) - many runs may point at the same one.
``runs``
    one row per recorded :class:`~repro.teststand.executor.ExecutionReport`:
    timestamp, git SHA + ``repro.__version__`` of the producing process,
    backend / workers / wall time, plan-cache statistics snapshot.  A
    resumable campaign (``CampaignSpec(store=..., resume=True)``) holds an
    *unfinished run* from its first checkpoint on: ``resume_key`` carries
    the campaign's content fingerprint until the final record stamps the
    run and clears it.  Readers skip runs whose ``resume_key`` is set.
``jobs``
    one row per job of a run, in the report's deterministic insertion
    order (``ordinal``), referencing the deduplicated script.  A
    checkpoint is the job's rows committed into the unfinished run.
``case_results``
    one row per executed test case (job x script): stand, overall
    verdict, simulated duration, wall time, setup action results.
``step_results``
    one row per executed script step with its action results.

Action results are stored as JSON documents (the exact dicts of
:mod:`repro.teststand.serialize`) inside the case/step rows: the
row-level columns carry everything queries filter on, while the JSON
preserves the full observation detail needed to rebuild a byte-identical
report.
"""

from __future__ import annotations

__all__ = ["STORE_SCHEMA", "DDL"]

#: Version of the on-disk store schema, recorded in ``meta``.  Bump on any
#: table change; :class:`repro.store.ResultStore` migrates a schema-3 store
#: on open and refuses any other version instead of misreading it.
STORE_SCHEMA = 4

#: The full DDL, executed statement by statement under the write lock that
#: opening a new store takes.  Every statement is idempotent
#: (``IF NOT EXISTS``), so migrating a schema-3 store runs it too.
DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS scripts (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    dut         TEXT NOT NULL,
    fingerprint TEXT NOT NULL UNIQUE,
    content     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_scripts_dut ON scripts(dut);

CREATE TABLE IF NOT EXISTS catalogues (
    id          INTEGER PRIMARY KEY,
    dut         TEXT NOT NULL,
    fingerprint TEXT NOT NULL UNIQUE,
    content     TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS campaigns (
    id           INTEGER PRIMARY KEY,
    dut          TEXT,
    composition  TEXT,
    stand        TEXT,
    policy       TEXT NOT NULL,
    backend      TEXT NOT NULL,
    jobs         INTEGER NOT NULL,
    concurrency  INTEGER NOT NULL,
    retries      INTEGER NOT NULL,
    use_plans    INTEGER NOT NULL,
    reuse_stands INTEGER NOT NULL,
    catalogue_id INTEGER REFERENCES catalogues(id),
    fingerprint  TEXT NOT NULL UNIQUE
);

CREATE TABLE IF NOT EXISTS runs (
    id            INTEGER PRIMARY KEY,
    created_at    REAL NOT NULL,
    git_sha       TEXT,
    repro_version TEXT NOT NULL,
    backend       TEXT NOT NULL,
    workers       INTEGER NOT NULL,
    wall_time     REAL NOT NULL,
    plan_cache    TEXT,
    campaign_id   INTEGER REFERENCES campaigns(id),
    resume_key    TEXT
);
CREATE INDEX IF NOT EXISTS idx_runs_created ON runs(created_at);
CREATE UNIQUE INDEX IF NOT EXISTS idx_runs_resume ON runs(resume_key)
    WHERE resume_key IS NOT NULL;

CREATE TABLE IF NOT EXISTS jobs (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    ordinal       INTEGER NOT NULL,
    job_index     INTEGER NOT NULL,
    script_id     INTEGER NOT NULL REFERENCES scripts(id),
    group_name    TEXT NOT NULL,
    stand_label   TEXT NOT NULL,
    policy        TEXT NOT NULL,
    stop_on_error INTEGER NOT NULL,
    use_plans     INTEGER NOT NULL,
    reuse_stands  INTEGER NOT NULL,
    attempts      INTEGER NOT NULL,
    error         TEXT NOT NULL,
    wall_time     REAL NOT NULL,
    UNIQUE (run_id, ordinal)
);
CREATE INDEX IF NOT EXISTS idx_jobs_run ON jobs(run_id);
CREATE INDEX IF NOT EXISTS idx_jobs_group ON jobs(group_name);

CREATE TABLE IF NOT EXISTS case_results (
    id        INTEGER PRIMARY KEY,
    job_id    INTEGER NOT NULL UNIQUE REFERENCES jobs(id) ON DELETE CASCADE,
    stand     TEXT NOT NULL,
    verdict   TEXT NOT NULL,
    passed    INTEGER NOT NULL,
    duration  REAL NOT NULL,
    wall_time REAL NOT NULL,
    setup     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cases_verdict ON case_results(verdict);

CREATE TABLE IF NOT EXISTS step_results (
    id         INTEGER PRIMARY KEY,
    case_id    INTEGER NOT NULL REFERENCES case_results(id) ON DELETE CASCADE,
    ordinal    INTEGER NOT NULL,
    number     INTEGER NOT NULL,
    duration   REAL NOT NULL,
    start_time REAL NOT NULL,
    remark     TEXT NOT NULL,
    verdict    TEXT NOT NULL,
    actions    TEXT NOT NULL,
    UNIQUE (case_id, ordinal)
);
"""
