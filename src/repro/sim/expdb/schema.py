"""SQLite schema and connection discipline for the experiment store.

One database file indexes everything the telemetry layer writes to disk:

* ``experiments``     — one row per (command, machine, llc) grouping.
* ``runs``            — one row per telemetry run directory, carrying the
  *raw manifest text* (`manifest_json`) so export is byte-lossless.
* ``cells``           — per-cell failure records from run manifests.
* ``spans``           — stage spans extracted from ``events.jsonl``.
* ``events``          — every event line, raw, in file order.
* ``probe_summaries`` — ``inspect_<workload>.json`` probe payloads.

Connections run in WAL mode so an ingest and any number of ``repro-sim
db`` readers coexist without blocking each other; writes are wrapped in
short transactions, and ``busy_timeout`` absorbs the residual
writer-vs-writer window. The database is a **rebuildable index** — the
JSONL/JSON files stay the durable source of truth (DESIGN.md decision
13), so a corrupted or stale database is repaired by deleting it and
re-running ``repro-sim db ingest``.
"""

import sqlite3
from pathlib import Path
from typing import Optional, Union

SCHEMA_VERSION = 1
"""Bumped when the table layout changes incompatibly.

A reader that finds a *newer* version warns and proceeds best-effort
(columns it knows keep their meaning); it never tracebacks — the fix for
a truly incompatible file is a delete + re-ingest, not a crash. Tables
an older file holds that this layout no longer creates are never read.
"""

DB_FILENAME = "expdb.sqlite3"
"""Default database file, created inside the runs root it indexes."""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS experiments (
    experiment_id INTEGER PRIMARY KEY,
    command       TEXT NOT NULL,
    machine       TEXT NOT NULL DEFAULT '',
    llc           TEXT NOT NULL DEFAULT '',
    UNIQUE (command, machine, llc)
);
CREATE TABLE IF NOT EXISTS runs (
    run_id          TEXT PRIMARY KEY,
    experiment_id   INTEGER REFERENCES experiments(experiment_id),
    root            TEXT,
    path            TEXT,
    status          TEXT,
    command         TEXT,
    machine         TEXT,
    started         TEXT,
    finished        TEXT,
    wall_sec        REAL,
    duration_s      REAL,
    seed            INTEGER,
    workloads       TEXT,
    policies        TEXT,
    argv            TEXT,
    format_version  INTEGER,
    manifest_json   TEXT NOT NULL,
    manifest_digest TEXT NOT NULL,
    events_bytes    INTEGER NOT NULL DEFAULT 0,
    events_count    INTEGER NOT NULL DEFAULT 0,
    events_malformed INTEGER NOT NULL DEFAULT 0,
    last_event_kind TEXT,
    last_event_t    REAL,
    ingested_at     TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_experiment ON runs (experiment_id);
CREATE INDEX IF NOT EXISTS runs_by_status     ON runs (status);
CREATE INDEX IF NOT EXISTS runs_by_started    ON runs (started);
CREATE TABLE IF NOT EXISTS cells (
    run_id     TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    kind       TEXT,
    workload   TEXT,
    status     TEXT NOT NULL,
    error_type TEXT,
    error      TEXT,
    attempts   INTEGER
);
CREATE INDEX IF NOT EXISTS cells_by_run ON cells (run_id);
CREATE TABLE IF NOT EXISTS spans (
    run_id     TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    seq        INTEGER NOT NULL,
    stage      TEXT,
    workload   TEXT,
    duration_s REAL,
    t          REAL,
    pid        INTEGER,
    role       TEXT
);
CREATE INDEX IF NOT EXISTS spans_by_run ON spans (run_id);
CREATE TABLE IF NOT EXISTS events (
    run_id  TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    seq     INTEGER NOT NULL,
    t       REAL,
    kind    TEXT,
    payload TEXT NOT NULL,
    PRIMARY KEY (run_id, seq)
);
CREATE TABLE IF NOT EXISTS probe_summaries (
    run_id   TEXT NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    workload TEXT,
    payload  TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS probes_by_run ON probe_summaries (run_id);
"""


def connect(
    path: Union[str, Path], create: bool = True, on_warning=None
) -> sqlite3.Connection:
    """Open (and, with ``create``, initialise) the experiment store.

    WAL + busy_timeout make one writer and many readers safe;
    ``check_same_thread=False`` lets the tail follower poll from helper
    threads. A database written by a newer schema triggers one
    ``on_warning(message)`` call and is then read best-effort.
    """
    path = Path(path)
    if create:
        path.parent.mkdir(parents=True, exist_ok=True)
    elif not path.exists():
        from repro.common.errors import ConfigError

        raise ConfigError(
            f"no experiment database at {path} (run 'repro-sim db "
            f"ingest' to build one)"
        )
    conn = sqlite3.connect(str(path), check_same_thread=False)
    conn.row_factory = sqlite3.Row
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA busy_timeout=5000")
    conn.execute("PRAGMA foreign_keys=ON")
    if create:
        ensure_schema(conn)
    version = schema_version(conn)
    if version is not None and version > SCHEMA_VERSION and \
            on_warning is not None:
        on_warning(
            f"{path}: database schema v{version} is newer than this "
            f"reader (v{SCHEMA_VERSION}); proceeding best-effort"
        )
    return conn


def ensure_schema(conn: sqlite3.Connection) -> None:
    """Create missing tables and stamp the schema version (idempotent)."""
    with conn:
        conn.executescript(_SCHEMA)
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES "
            "('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )


def schema_version(conn: sqlite3.Connection) -> Optional[int]:
    """The stored schema version, or None for a pre-schema file."""
    try:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
    except sqlite3.Error:
        return None
    if row is None:
        return None
    try:
        return int(row["value"])
    except (TypeError, ValueError):
        return None
