"""Queryable experiment store: a SQLite index over telemetry runs.

The JSONL artifacts (``manifest.json`` + ``events.jsonl``) written by
:mod:`repro.sim.telemetry` stay the durable source of truth; this package
maintains a rebuildable SQLite index over them — ingested post hoc
(:func:`ingest_runs_root`, ``repro-sim db ingest``) and queried through
``repro-sim db`` (experiments/runs/show/export/replay/regressions/tail).
Delete the database file and re-ingest to recover from any corruption.
"""

from repro.sim.expdb.ingest import (
    INGESTED,
    SKIPPED,
    UNCHANGED,
    UPDATED,
    export_manifest,
    ingest_run_dir,
    ingest_runs_root,
)
from repro.sim.expdb.query import (
    get_run,
    list_experiments,
    query_runs,
    reconstruct_invocation,
    run_detail,
    run_regressions,
)
from repro.sim.expdb.schema import (
    DB_FILENAME,
    SCHEMA_VERSION,
    connect,
    ensure_schema,
    schema_version,
)
from repro.sim.expdb.tail import tail_run

__all__ = [
    "DB_FILENAME",
    "INGESTED",
    "SCHEMA_VERSION",
    "SKIPPED",
    "UNCHANGED",
    "UPDATED",
    "connect",
    "ensure_schema",
    "export_manifest",
    "get_run",
    "ingest_run_dir",
    "ingest_runs_root",
    "list_experiments",
    "query_runs",
    "reconstruct_invocation",
    "run_detail",
    "run_regressions",
    "schema_version",
    "tail_run",
]
