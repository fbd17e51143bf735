"""Read-side queries: experiments, runs, replay reconstruction,
and cross-run regression analytics.

Everything here works on the SQLite index built by
:mod:`repro.sim.expdb.ingest`; nothing re-reads runs roots, which is what
makes ``repro-sim db runs`` on a thousand-run root cheap. Regression
detection compares a numeric manifest metric across successive runs of
one experiment.
"""

import json
import shlex
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.stats import ratio

_LOWER_IS_BETTER_HINTS = ("overhead", "_sec", "wall", "duration")
_HIGHER_IS_BETTER_HINTS = ("per_sec", "speedup", "throughput", "rate")


def list_experiments(conn) -> List[Dict]:
    """One row per experiment with run counts and the activity window."""
    rows = conn.execute(
        "SELECT e.experiment_id, e.command, e.machine, e.llc,"
        " COUNT(r.run_id) AS runs,"
        " SUM(CASE WHEN r.status LIKE 'completed%' THEN 1 ELSE 0 END)"
        "   AS completed,"
        " SUM(CASE WHEN r.status = 'failed' THEN 1 ELSE 0 END) AS failed,"
        " MIN(r.started) AS first_run, MAX(r.started) AS last_run"
        " FROM experiments e LEFT JOIN runs r USING (experiment_id)"
        " GROUP BY e.experiment_id"
        " ORDER BY e.command, e.machine, e.llc"
    ).fetchall()
    return [dict(row) for row in rows]


def query_runs(
    conn,
    workload: Optional[str] = None,
    policy: Optional[str] = None,
    status: Optional[str] = None,
    command: Optional[str] = None,
    since: Optional[str] = None,
    until: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict]:
    """Filtered run listing, oldest first.

    ``since``/``until`` compare against the ISO-8601 ``started`` stamp
    (prefixes like ``2026-08-01`` work — ISO order is lexicographic).
    Workload/policy filters match membership in the manifest lists.
    """
    clauses, params = [], []
    if status is not None:
        clauses.append("status = ?")
        params.append(status)
    if command is not None:
        clauses.append("command = ?")
        params.append(command)
    if since is not None:
        clauses.append("started >= ?")
        params.append(since)
    if until is not None:
        # A bare date prefix should include that whole day.
        clauses.append("started <= ?")
        params.append(until if "T" in until else until + "T99")
    sql = "SELECT * FROM runs"
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += " ORDER BY started, run_id"
    rows = [dict(row) for row in conn.execute(sql, params).fetchall()]
    if workload is not None:
        rows = [r for r in rows if workload in _json_list(r["workloads"])]
    if policy is not None:
        rows = [r for r in rows if policy in _json_list(r["policies"])]
    if limit is not None:
        rows = rows[-limit:]
    return rows


def get_run(conn, run_id: str) -> Dict:
    """One run row; unique prefixes of the id are accepted."""
    row = conn.execute(
        "SELECT * FROM runs WHERE run_id = ?", (run_id,)
    ).fetchone()
    if row is not None:
        return dict(row)
    rows = conn.execute(
        "SELECT * FROM runs WHERE run_id LIKE ? ORDER BY run_id",
        (run_id + "%",),
    ).fetchall()
    if not rows:
        raise ConfigError(
            f"no run {run_id!r} in the experiment database"
        )
    if len(rows) > 1:
        raise ConfigError(
            f"run id {run_id!r} is ambiguous: "
            f"{[r['run_id'] for r in rows]}"
        )
    return dict(rows[0])


def run_detail(conn, run_id: str) -> Dict:
    """Full view of one run: manifest, stage spans, cells, probes."""
    run = get_run(conn, run_id)
    run_id = run["run_id"]
    spans = conn.execute(
        "SELECT stage, COUNT(*) AS spans, SUM(duration_s) AS total_s,"
        " AVG(duration_s) AS mean_s, MAX(duration_s) AS max_s"
        " FROM spans WHERE run_id = ? GROUP BY stage ORDER BY stage",
        (run_id,),
    ).fetchall()
    cells = conn.execute(
        "SELECT kind, workload, status, error_type, error, attempts"
        " FROM cells WHERE run_id = ?",
        (run_id,),
    ).fetchall()
    probes = conn.execute(
        "SELECT workload FROM probe_summaries WHERE run_id = ?"
        " ORDER BY workload",
        (run_id,),
    ).fetchall()
    try:
        manifest = json.loads(run["manifest_json"])
        if not isinstance(manifest, dict):
            manifest = {}
    except ValueError:
        manifest = {}
    return {
        "run": run,
        "manifest": manifest,
        "stages": [dict(row) for row in spans],
        "cells": [dict(row) for row in cells],
        "probe_workloads": [row["workload"] for row in probes],
    }


def reconstruct_invocation(conn, run_id: str) -> Tuple[str, List[str]]:
    """The exact engine invocation that produced a run.

    Returns ``(rendered_command, argv)`` where ``argv`` feeds
    :func:`repro.cli.main` directly. The manifest records ``argv`` at run
    creation, so the reconstruction is the invocation, not a guess.
    """
    run = get_run(conn, run_id)
    argv = _json_list(run["argv"])
    if not argv:
        raise ConfigError(
            f"run {run['run_id']} recorded no argv (created through the "
            f"library API, not the CLI); manifest command was "
            f"{run['command']!r}"
        )
    argv = [str(token) for token in argv]
    return "repro-sim " + shlex.join(argv), argv


# ----------------------------------------------------------------------
# Regression analytics
# ----------------------------------------------------------------------

def run_regressions(
    conn,
    metric: str = "duration_s",
    command: Optional[str] = None,
    tolerance: float = 0.25,
    direction: str = "auto",
) -> Dict:
    """Compare a manifest metric across successive runs per experiment.

    Runs are grouped by experiment (command, machine, llc) so only
    like-for-like invocations are compared; within each group the metric
    (``duration_s``, ``wall_sec``, or any numeric manifest field) is
    checked pairwise in ``started`` order. Durations are lower-is-better
    under ``auto``.
    """
    if tolerance < 0:
        raise ConfigError(f"tolerance must be >= 0, got {tolerance}")
    resolved = direction if direction != "auto" else (
        "higher" if any(h in metric for h in _HIGHER_IS_BETTER_HINTS)
        else "lower" if any(h in metric for h in _LOWER_IS_BETTER_HINTS)
        else "higher"
    )
    clauses = "WHERE status LIKE 'completed%'"
    params: List = []
    if command is not None:
        clauses += " AND command = ?"
        params.append(command)
    rows = conn.execute(
        f"SELECT run_id, experiment_id, command, machine, started,"
        f" manifest_json FROM runs {clauses} ORDER BY started, run_id",
        params,
    ).fetchall()
    groups: Dict[int, List] = {}
    for row in rows:
        try:
            manifest = json.loads(row["manifest_json"])
        except ValueError:
            continue
        value = manifest.get(metric) if isinstance(manifest, dict) else None
        if not isinstance(value, (int, float)):
            continue
        groups.setdefault(row["experiment_id"], []).append(
            (dict(row), float(value))
        )
    comparisons = []
    for entries in groups.values():
        for (prev, prev_value), (cur, cur_value) in zip(entries,
                                                        entries[1:]):
            rat = ratio(cur_value, prev_value)
            if resolved == "higher":
                regressed = rat < 1.0 - tolerance
            else:
                regressed = rat > 1.0 + tolerance
            comparisons.append({
                "command": cur["command"],
                "baseline_run": prev["run_id"],
                "run": cur["run_id"],
                "baseline_value": prev_value,
                "value": cur_value,
                "ratio": rat,
                "regressed": regressed,
            })
    regressed = [c for c in comparisons if c["regressed"]]
    return {
        "metric": metric,
        "direction": resolved,
        "tolerance": tolerance,
        "comparisons": comparisons,
        "regressions": len(regressed),
        "ok": not regressed,
    }


def _json_list(text: Optional[str]) -> List:
    if not text:
        return []
    try:
        value = json.loads(text)
    except ValueError:
        return []
    return value if isinstance(value, list) else []
