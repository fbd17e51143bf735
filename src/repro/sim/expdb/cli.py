"""``repro-sim db`` — the queryable experiment store's command surface.

Subcommands (all accept ``--json`` for machine output on stdout, with
human warnings on stderr — the JSON-to-stdout discipline the rest of the
tooling follows):

* ``ingest``      — index a runs root.
* ``experiments`` — one row per (command, machine, llc) grouping.
* ``runs``        — filtered run listing (workload/policy/status/date).
* ``show``        — manifest, stage spans, failed cells of one run.
* ``export``      — the stored manifest, byte-identical to the source.
* ``replay``      — reconstruct (optionally re-execute) a run's exact
  engine invocation from its stored argv.
* ``regressions`` — compare a manifest metric across successive runs
  of one experiment; exits nonzero on a regression.
* ``tail``        — follow a live campaign's event stream.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.analysis.tables import render_table
from repro.common.errors import ConfigError
from repro.sim import telemetry
from repro.sim.expdb import ingest as ingest_mod
from repro.sim.expdb import query
from repro.sim.expdb.schema import DB_FILENAME, connect
from repro.sim.expdb.tail import DEFAULT_POLL_SECONDS, tail_run


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _runs_root(args) -> Path:
    if getattr(args, "runs_root", None):
        return telemetry.resolve_runs_root(args.runs_root)
    if getattr(args, "cache_dir", None):
        return telemetry.resolve_runs_root(cache_dir=args.cache_dir)
    return telemetry.resolve_runs_root()


def _db_path(args) -> Path:
    if args.db:
        return Path(args.db).expanduser()
    return _runs_root(args) / DB_FILENAME


def _connect(args, create: bool):
    return connect(_db_path(args), create=create, on_warning=_warn)


def _emit(args, payload, human) -> None:
    """Machine or human rendering of one command's result."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=False, default=str))
    else:
        human()


def cmd_ingest(args) -> int:
    conn = _connect(args, create=True)
    try:
        run_counts = ingest_mod.ingest_runs_root(
            conn, _runs_root(args), on_warning=_warn
        )
    finally:
        conn.close()
    payload = {"db": str(_db_path(args)), "runs": run_counts}

    def human():
        rows = [["database", payload["db"]]]
        for status, count in run_counts.items():
            if count:
                rows.append([f"runs {status}", count])
        print(render_table(["metric", "value"], rows,
                           title="Experiment-store ingest"))

    _emit(args, payload, human)
    return 0


def cmd_experiments(args) -> int:
    conn = _connect(args, create=False)
    try:
        experiments = query.list_experiments(conn)
    finally:
        conn.close()

    def human():
        rows = [[e["experiment_id"], e["command"], e["machine"] or "-",
                 e["llc"] or "-", e["runs"], e["completed"] or 0,
                 e["failed"] or 0, e["last_run"] or "-"]
                for e in experiments]
        print(render_table(
            ["id", "command", "machine", "llc", "runs", "completed",
             "failed", "last_run"],
            rows, title=f"Experiments ({_db_path(args)})",
        ))

    _emit(args, {"experiments": experiments}, human)
    return 0


def cmd_runs(args) -> int:
    conn = _connect(args, create=False)
    try:
        runs = query.query_runs(
            conn, workload=args.workload, policy=args.policy,
            status=args.status, command=args.run_command,
            since=args.since, until=args.until, limit=args.limit,
        )
    finally:
        conn.close()
    slim = [{k: run[k] for k in (
        "run_id", "command", "status", "machine", "started", "wall_sec",
        "duration_s", "events_count", "last_event_kind")} for run in runs]

    def human():
        rows = [[r["run_id"], r["command"], r["status"],
                 r["machine"] or "?",
                 r["duration_s"] if r["duration_s"] is not None
                 else r["wall_sec"] or "",
                 r["events_count"], r["last_event_kind"] or "-"]
                for r in slim]
        print(render_table(
            ["run", "command", "status", "machine", "duration_s",
             "events", "last_event"],
            rows, title=f"Runs ({len(rows)} matching)",
        ))

    _emit(args, {"runs": slim}, human)
    return 0


def cmd_show(args) -> int:
    conn = _connect(args, create=False)
    try:
        detail = query.run_detail(conn, args.run_id)
    finally:
        conn.close()

    def human():
        run = detail["run"]
        skip = {"manifest_json", "manifest_digest", "argv", "workloads",
                "policies"}
        rows = [[key, value] for key, value in run.items()
                if key not in skip and value is not None]
        print(render_table(["field", "value"], rows,
                           title=f"Run {run['run_id']}"))
        if detail["stages"]:
            print(render_table(
                ["stage", "spans", "total_s", "mean_s", "max_s"],
                [[s["stage"], s["spans"], _r(s["total_s"]), _r(s["mean_s"]),
                  _r(s["max_s"])] for s in detail["stages"]],
                title="Stage spans",
            ))
        if detail["cells"]:
            print(render_table(
                ["cell", "workload", "status", "error", "attempts"],
                [[c["kind"], c["workload"], c["status"],
                  f"{c['error_type']}: {c['error']}", c["attempts"]]
                 for c in detail["cells"]],
                title="Failed cells",
            ))
        if detail["probe_workloads"]:
            print("probe reports:", ", ".join(detail["probe_workloads"]))

    payload = dict(detail)
    payload["run"] = {k: v for k, v in detail["run"].items()
                      if k != "manifest_json"}
    _emit(args, payload, human)
    return 0


def cmd_export(args) -> int:
    conn = _connect(args, create=False)
    try:
        run = query.get_run(conn, args.run_id)
        text = ingest_mod.export_manifest(conn, run["run_id"])
    finally:
        conn.close()
    sys.stdout.write(text)
    return 0


def cmd_replay(args) -> int:
    conn = _connect(args, create=False)
    try:
        rendered, argv = query.reconstruct_invocation(conn, args.run_id)
    finally:
        conn.close()
    if args.execute:
        from repro.cli import main as cli_main

        print(f"replaying: {rendered}", file=sys.stderr)
        return cli_main(argv)
    _emit(args, {"command": rendered, "argv": argv},
          lambda: print(rendered))
    return 0


def cmd_regressions(args) -> int:
    conn = _connect(args, create=False)
    try:
        report = query.run_regressions(
            conn, metric=args.metric, command=args.run_command,
            tolerance=args.tolerance, direction=args.direction,
        )
    finally:
        conn.close()

    def human():
        rows = [[c["run"], c["baseline_run"], _r(c["value"]),
                 _r(c["ratio"]), "REGRESSED" if c["regressed"] else "ok"]
                for c in report["comparisons"]]
        print(render_table(
            ["run", "baseline", "value", "ratio", "verdict"],
            rows,
            title=(f"Regressions on {report['metric']} "
                   f"({report['direction']} is better, "
                   f"tolerance {report['tolerance']:.2%})"),
        ))
        if report["regressions"]:
            print(f"error: {report['regressions']} regression(s) beyond "
                  f"tolerance", file=sys.stderr)

    _emit(args, report, human)
    return 0 if report["ok"] else 1


def cmd_tail(args) -> int:
    run_dir = None
    try:
        conn = _connect(args, create=False)
        try:
            run = query.get_run(conn, args.run_id)
            candidate = Path(run["path"]) if run["path"] else None
        finally:
            conn.close()
        if candidate is not None and candidate.is_dir():
            run_dir = candidate
    except ConfigError:
        pass  # no database yet, or the run only exists on disk
    if run_dir is None:
        run_dir = telemetry.load_run(args.run_id, _runs_root(args)).path
    return tail_run(
        run_dir, follow=not args.no_follow, poll=args.poll,
        timeout=args.timeout, json_mode=args.json, verbose=args.verbose,
    )


def _r(value, digits: int = 4):
    return round(value, digits) if isinstance(value, (int, float)) else ""


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------

def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", default=None, metavar="PATH",
        help=f"experiment database path (default: {DB_FILENAME} "
             f"inside the runs root)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory whose runs/ the store indexes",
    )
    parser.add_argument(
        "--runs-root", default=None, metavar="DIR",
        help="explicit runs root (overrides --cache-dir)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON on stdout",
    )


def add_db_parser(subparsers) -> None:
    """Register the ``db`` command group on the repro-sim parser."""
    p = subparsers.add_parser(
        "db",
        help="queryable experiment store (SQLite index over runs)",
    )
    actions = p.add_subparsers(dest="db_action", required=True)

    sp = actions.add_parser("ingest", help="index a runs root")
    _add_store_arguments(sp)

    sp = actions.add_parser("experiments",
                            help="list experiment groupings")
    _add_store_arguments(sp)

    sp = actions.add_parser("runs", help="filtered run listing")
    _add_store_arguments(sp)
    sp.add_argument("--workload", default=None,
                    help="only runs whose workload set contains this name")
    sp.add_argument("--policy", default=None,
                    help="only runs whose policy list contains this name")
    sp.add_argument("--status", default=None,
                    help="manifest status filter (completed, failed, ...)")
    sp.add_argument("--command", dest="run_command", default=None,
                    help="subcommand filter (compare, sweep, fuzz, ...)")
    sp.add_argument("--since", default=None, metavar="ISO",
                    help="runs started at or after this ISO timestamp")
    sp.add_argument("--until", default=None, metavar="ISO",
                    help="runs started at or before this ISO timestamp")
    sp.add_argument("--limit", type=int, default=None, metavar="N",
                    help="keep only the newest N matches")

    sp = actions.add_parser("show", help="one run in full")
    _add_store_arguments(sp)
    sp.add_argument("run_id", help="run id (unique prefixes accepted)")

    sp = actions.add_parser(
        "export",
        help="print a run's stored manifest, byte-identical to the source",
    )
    _add_store_arguments(sp)
    sp.add_argument("run_id", help="run id (unique prefixes accepted)")

    sp = actions.add_parser(
        "replay", help="reconstruct a run's exact engine invocation"
    )
    _add_store_arguments(sp)
    sp.add_argument("run_id", help="run id (unique prefixes accepted)")
    sp.add_argument("--exec", dest="execute", action="store_true",
                    help="re-execute the reconstructed invocation")

    sp = actions.add_parser(
        "regressions",
        help="compare a metric across runs of one experiment "
             "(exit 1 on regression)",
    )
    _add_store_arguments(sp)
    sp.add_argument("--metric", default="duration_s",
                    help="a numeric manifest field (default: duration_s)")
    sp.add_argument("--tolerance", type=float, default=0.05, metavar="FRAC",
                    help="allowed fractional drift (default: 0.05)")
    sp.add_argument("--direction", choices=("auto", "higher", "lower"),
                    default="auto",
                    help="whether higher or lower values are better "
                         "(default: inferred from the metric name)")
    sp.add_argument("--command", dest="run_command", default=None,
                    help="restrict to one subcommand")

    sp = actions.add_parser(
        "tail", help="follow a live campaign's event stream"
    )
    _add_store_arguments(sp)
    sp.add_argument("run_id", help="run id (unique prefixes accepted)")
    sp.add_argument("--poll", type=float, default=DEFAULT_POLL_SECONDS,
                    metavar="SEC", help="poll interval while following")
    sp.add_argument("--no-follow", action="store_true",
                    help="drain the existing log and exit")
    sp.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="stop following after SEC seconds")
    sp.add_argument("--verbose", action="store_true",
                    help="render every event kind, not just progress")


_DB_ACTIONS = {
    "ingest": cmd_ingest,
    "experiments": cmd_experiments,
    "runs": cmd_runs,
    "show": cmd_show,
    "export": cmd_export,
    "replay": cmd_replay,
    "regressions": cmd_regressions,
    "tail": cmd_tail,
}


def cmd_db(args) -> int:
    return _DB_ACTIONS[args.db_action](args)
