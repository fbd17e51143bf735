"""Lossless, idempotent ingest of telemetry runs roots.

Design contract (DESIGN.md decision 13): the files on disk are the
source of truth and this module only *indexes* them —

* **lossless** — the raw manifest text of every run is stored verbatim
  (:func:`export_manifest` returns it byte-for-byte), and every event
  line lands raw in the ``events`` table in file order. A manifest that
  fails to parse is still captured raw (``status="corrupt"``), so even a
  damaged run survives the round trip.
* **idempotent** — each run carries a digest of its manifest text plus
  the event-log byte count; re-ingesting an unchanged run is a no-op and
  a changed run (a live campaign appending events, a re-sealed manifest)
  is atomically replaced inside one transaction. Re-running the ingest
  mid-campaign therefore updates exactly the runs that changed.
* **tolerant** — a truncated event log, a torn final line, or a missing
  manifest never raises: damage is skipped, counted, and surfaced via
  ``on_warning`` one line at a time.
"""

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.common.errors import ConfigError
from repro.sim.telemetry import (
    EVENTS_NAME,
    MANIFEST_NAME,
    resolve_runs_root,
)

INGESTED = "ingested"
UPDATED = "updated"
UNCHANGED = "unchanged"
SKIPPED = "skipped"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _json_or_none(value) -> Optional[str]:
    return json.dumps(value) if value is not None else None


def _parse_events(raw: str):
    """Raw event text -> (rows, malformed, last_kind, last_t).

    Rows are ``(seq, t, kind, payload)`` with ``payload`` the raw line —
    torn or malformed lines are counted, not fatal, mirroring
    :func:`repro.sim.telemetry.read_events`.
    """
    rows = []
    malformed = 0
    last_kind = None
    last_t = None
    for seq, line in enumerate(raw.splitlines()):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            event = json.loads(stripped)
        except ValueError:
            malformed += 1
            continue
        if not isinstance(event, dict):
            malformed += 1
            continue
        kind = event.get("kind")
        t = event.get("t")
        if not isinstance(t, (int, float)):
            t = None
        rows.append((seq, t, kind if isinstance(kind, str) else None,
                     stripped))
        last_kind = kind if isinstance(kind, str) else last_kind
        last_t = t if t is not None else last_t
    return rows, malformed, last_kind, last_t


def _experiment_id(conn, command: str, machine: str, llc: str) -> int:
    conn.execute(
        "INSERT OR IGNORE INTO experiments (command, machine, llc) "
        "VALUES (?, ?, ?)",
        (command, machine, llc),
    )
    row = conn.execute(
        "SELECT experiment_id FROM experiments "
        "WHERE command = ? AND machine = ? AND llc = ?",
        (command, machine, llc),
    ).fetchone()
    return row["experiment_id"]


def ingest_run_dir(
    conn,
    run_dir: Union[str, Path],
    root: Optional[Union[str, Path]] = None,
    on_warning=None,
) -> str:
    """Index one run directory; returns an :data:`INGESTED`-family status.

    The whole run (row + cells + spans + events + probe summaries) is
    replaced in a single transaction, so a reader never observes a
    half-ingested run.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    try:
        manifest_text = manifest_path.read_text(encoding="utf-8")
    except OSError as error:
        if on_warning is not None:
            on_warning(f"{manifest_path}: unreadable manifest ({error}); "
                       f"run skipped")
        return SKIPPED

    manifest: Dict = {}
    status_override = None
    try:
        parsed = json.loads(manifest_text)
    except ValueError:
        parsed = None
    if isinstance(parsed, dict):
        manifest = parsed
    else:
        status_override = "corrupt"
        if on_warning is not None:
            on_warning(f"{manifest_path}: corrupt manifest; raw text "
                       f"indexed with status=corrupt")

    events_path = run_dir / EVENTS_NAME
    try:
        events_raw = events_path.read_text(encoding="utf-8",
                                           errors="replace")
    except OSError:
        events_raw = ""
    events_bytes = len(events_raw.encode("utf-8"))

    run_id = run_dir.name
    digest = _digest(manifest_text)
    existing = conn.execute(
        "SELECT manifest_digest, events_bytes FROM runs WHERE run_id = ?",
        (run_id,),
    ).fetchone()
    if existing is not None and existing["manifest_digest"] == digest \
            and existing["events_bytes"] == events_bytes:
        return UNCHANGED

    event_rows, malformed, last_kind, last_t = _parse_events(events_raw)
    if malformed and on_warning is not None:
        on_warning(f"{events_path}: skipped {malformed} malformed event "
                   f"line(s)")

    command = str(manifest.get("command") or "?")
    machine = str(manifest.get("machine") or "")
    llc = str(manifest.get("llc") or "")
    workloads = manifest.get("workloads")
    policies = manifest.get("policies")
    argv = manifest.get("argv")
    failures = manifest.get("failures")

    probe_rows = []
    for probe_path in sorted(run_dir.glob("inspect_*.json")):
        try:
            payload = probe_path.read_text(encoding="utf-8")
        except OSError:
            continue
        workload = probe_path.stem[len("inspect_"):]
        probe_rows.append((run_id, workload, payload))

    with conn:
        experiment_id = _experiment_id(conn, command, machine, llc)
        conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
        conn.execute(
            "INSERT INTO runs (run_id, experiment_id, root, path, status,"
            " command, machine, started, finished, wall_sec, duration_s,"
            " seed, workloads, policies, argv, format_version,"
            " manifest_json, manifest_digest, events_bytes, events_count,"
            " events_malformed, last_event_kind, last_event_t,"
            " ingested_at)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
            " ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id, experiment_id,
                str(resolve_runs_root(root)) if root is not None
                else str(run_dir.parent),
                str(run_dir),
                status_override or str(manifest.get("status", "unknown")),
                command, machine or None,
                manifest.get("started"), manifest.get("finished"),
                _as_float(manifest.get("wall_sec")),
                _as_float(manifest.get("duration_s")),
                _as_int(manifest.get("seed")),
                _json_or_none(workloads if isinstance(workloads, list)
                              else None),
                _json_or_none(policies if isinstance(policies, list)
                              else None),
                _json_or_none(argv if isinstance(argv, list) else None),
                _as_int(manifest.get("format_version")),
                manifest_text, digest, events_bytes, len(event_rows),
                malformed, last_kind, last_t, _now(),
            ),
        )
        if isinstance(failures, list):
            conn.executemany(
                "INSERT INTO cells (run_id, kind, workload, status,"
                " error_type, error, attempts) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (run_id, f.get("kind"), f.get("workload"), "failed",
                     f.get("error_type"), f.get("error"),
                     _as_int(f.get("attempts")))
                    for f in failures if isinstance(f, dict)
                ],
            )
        conn.executemany(
            "INSERT INTO events (run_id, seq, t, kind, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            [(run_id, seq, t, kind, payload)
             for seq, t, kind, payload in event_rows],
        )
        span_rows = []
        for seq, t, kind, payload in event_rows:
            if kind != "span":
                continue
            event = json.loads(payload)
            span_rows.append((
                run_id, seq, event.get("stage"), event.get("workload"),
                _as_float(event.get("duration_s", event.get("wall_sec"))),
                t, _as_int(event.get("pid")), event.get("role"),
            ))
        conn.executemany(
            "INSERT INTO spans (run_id, seq, stage, workload, duration_s,"
            " t, pid, role) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            span_rows,
        )
        conn.executemany(
            "INSERT INTO probe_summaries (run_id, workload, payload) "
            "VALUES (?, ?, ?)",
            probe_rows,
        )
    return UPDATED if existing is not None else INGESTED


def ingest_runs_root(
    conn,
    root: Optional[Union[str, Path]] = None,
    on_warning=None,
) -> Dict[str, int]:
    """Index every run directory under ``root``; returns status counts."""
    root = resolve_runs_root(root)
    counts = {INGESTED: 0, UPDATED: 0, UNCHANGED: 0, SKIPPED: 0}
    if not root.is_dir():
        return counts
    for run_dir in sorted(path for path in root.iterdir()
                          if path.is_dir()):
        if not (run_dir / MANIFEST_NAME).exists():
            continue  # same contract as telemetry.list_runs
        status = ingest_run_dir(conn, run_dir, root=root,
                                on_warning=on_warning)
        counts[status] += 1
    return counts


def export_manifest(conn, run_id: str) -> str:
    """The stored manifest text, byte-identical to the source file."""
    row = conn.execute(
        "SELECT manifest_json FROM runs WHERE run_id = ?", (run_id,)
    ).fetchone()
    if row is None:
        raise ConfigError(f"no run {run_id!r} in the experiment database")
    return row["manifest_json"]


def _as_float(value) -> Optional[float]:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _as_int(value) -> Optional[int]:
    try:
        return int(value)
    except (TypeError, ValueError):
        return None
