"""Experiment-store suite: schema, ingest, queries, tail, CLI.

The load-bearing contracts:

* **lossless** — ``db export`` returns the manifest byte-identical to the
  file the telemetry layer wrote, including for corrupt manifests;
* **idempotent** — a second ingest of an unchanged root is a no-op;
* **tolerant** — SIGKILL-torn event logs and garbage lines are dropped,
  never fatal (hypothesis drives the damage via
  :func:`tests.strategies.event_log_corruptions`);
* **regressions** — ``db regressions`` compares successive runs of one
  experiment and exits nonzero on a planted slowdown.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given

from repro.cli import main
from repro.common.errors import ConfigError
from repro.common.stats import ratio
from repro.sim import telemetry
from repro.sim.expdb import (
    INGESTED,
    SKIPPED,
    UNCHANGED,
    UPDATED,
    connect,
    export_manifest,
    get_run,
    ingest_run_dir,
    ingest_runs_root,
    list_experiments,
    query_runs,
    reconstruct_invocation,
    run_detail,
    run_regressions,
)
from repro.sim.expdb.schema import SCHEMA_VERSION
from repro.sim.expdb.tail import tail_run
from tests.strategies import (
    event_log_corruptions,
    run_manifests,
    telemetry_events,
)

FAST = ["--accesses", "3000", "--workloads", "swaptions"]


def make_run_dir(root, run_id, manifest, events=(), raw_manifest=None):
    """Lay a run directory down the way the telemetry writer would."""
    run_dir = Path(root) / run_id
    run_dir.mkdir(parents=True)
    text = raw_manifest if raw_manifest is not None else (
        json.dumps(manifest, indent=2, sort_keys=False) + "\n"
    )
    (run_dir / telemetry.MANIFEST_NAME).write_text(text, encoding="utf-8")
    if events:
        lines = "".join(json.dumps(e) + "\n" for e in events)
        (run_dir / telemetry.EVENTS_NAME).write_text(lines,
                                                     encoding="utf-8")
    return run_dir


@pytest.fixture
def db(tmp_path):
    conn = connect(tmp_path / "store.sqlite3")
    yield conn
    conn.close()


class TestSchema:
    def test_connect_creates_wal_schema(self, tmp_path, db):
        assert db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        tables = {row[0] for row in db.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        assert {"meta", "experiments", "runs", "cells", "spans", "events",
                "probe_summaries"} <= tables

    def test_connect_without_create_requires_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no experiment database"):
            connect(tmp_path / "missing.sqlite3", create=False)

    def test_future_schema_warns_but_proceeds(self, tmp_path):
        path = tmp_path / "future.sqlite3"
        conn = connect(path)
        conn.execute("UPDATE meta SET value = ? WHERE key = "
                     "'schema_version'", (str(SCHEMA_VERSION + 5),))
        conn.commit()
        conn.close()
        warnings = []
        conn = connect(path, create=False, on_warning=warnings.append)
        conn.close()
        assert len(warnings) == 1
        assert "newer than this reader" in warnings[0]

class TestIngest:
    @given(manifest=run_manifests(), events=telemetry_events())
    def test_ingest_is_idempotent_and_lossless(self, tmp_path_factory,
                                               manifest, events):
        root = tmp_path_factory.mktemp("root")
        run_dir = make_run_dir(root, "20260101T000000-p1", manifest,
                               events)
        conn = connect(root / "db.sqlite3")
        try:
            assert ingest_run_dir(conn, run_dir, root=root) == INGESTED
            # Round trip: the stored manifest is the file, byte for byte.
            source = (run_dir / telemetry.MANIFEST_NAME).read_text(
                encoding="utf-8")
            assert export_manifest(conn, run_dir.name) == source
            # Idempotency: an unchanged run is a no-op.
            assert ingest_run_dir(conn, run_dir, root=root) == UNCHANGED
            stored = conn.execute(
                "SELECT payload FROM events WHERE run_id = ?"
                " ORDER BY seq", (run_dir.name,)).fetchall()
            assert [json.loads(row[0]) for row in stored] == list(events)
        finally:
            conn.close()

    @given(manifest=run_manifests(),
           events=telemetry_events(min_size=1),
           corruption=event_log_corruptions())
    def test_corrupt_event_logs_never_fail(self, tmp_path_factory,
                                           manifest, events, corruption):
        root = tmp_path_factory.mktemp("root")
        run_dir = make_run_dir(root, "20260101T000000-p1", manifest,
                               events)
        events_path = run_dir / telemetry.EVENTS_NAME
        kind, payload = corruption
        data = events_path.read_bytes()
        if kind == "truncate":
            events_path.write_bytes(data[:max(1, int(len(data) * payload))])
        else:
            events_path.write_bytes(data + payload)
        conn = connect(root / "db.sqlite3")
        try:
            assert ingest_run_dir(conn, run_dir, root=root) == INGESTED
            stored = [json.loads(row[0]) for row in conn.execute(
                "SELECT payload FROM events WHERE run_id = ?"
                " ORDER BY seq", (run_dir.name,))]
            # The ingest parser and the telemetry reference reader must
            # agree on what survived the damage...
            assert stored == telemetry.read_events(run_dir)
            # ...and nothing is invented: the original events survive as
            # a prefix (appended garbage may parse as at most one extra).
            prefix = stored[:len(events)]
            assert prefix == list(events)[:len(prefix)]
            if kind == "truncate":
                assert len(stored) <= len(events)
            else:
                assert len(stored) >= len(events)
        finally:
            conn.close()

    def test_updated_run_is_replaced_atomically(self, tmp_path, db):
        manifest = {"command": "compare", "status": "running",
                    "format_version": 1}
        run_dir = make_run_dir(tmp_path, "r1", manifest,
                               [{"t": 1.0, "kind": "run_started"}])
        assert ingest_run_dir(db, run_dir, root=tmp_path) == INGESTED
        manifest["status"] = "completed"
        (run_dir / telemetry.MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        with open(run_dir / telemetry.EVENTS_NAME, "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"t": 2.0, "kind": "run_finished",
                 "status": "completed"}) + "\n")
        assert ingest_run_dir(db, run_dir, root=tmp_path) == UPDATED
        row = db.execute("SELECT status, events_count, last_event_kind"
                         " FROM runs WHERE run_id = 'r1'").fetchone()
        assert row["status"] == "completed"
        assert row["events_count"] == 2
        assert row["last_event_kind"] == "run_finished"

    def test_corrupt_manifest_round_trips_raw(self, tmp_path, db):
        raw = '{"command": "compare", "status": "comp'  # torn mid-write
        run_dir = make_run_dir(tmp_path, "r1", None, raw_manifest=raw)
        warnings = []
        assert ingest_run_dir(db, run_dir, root=tmp_path,
                              on_warning=warnings.append) == INGESTED
        assert export_manifest(db, "r1") == raw
        assert get_run(db, "r1")["status"] == "corrupt"
        assert any("corrupt manifest" in w for w in warnings)

    def test_missing_manifest_is_skipped(self, tmp_path, db):
        run_dir = tmp_path / "r1"
        run_dir.mkdir()
        assert ingest_run_dir(db, run_dir, root=tmp_path) == SKIPPED

    def test_ingest_runs_root_counts(self, tmp_path, db):
        for index in range(3):
            make_run_dir(tmp_path, f"r{index}",
                         {"command": "compare", "status": "completed"})
        (tmp_path / "not-a-run").mkdir()
        counts = ingest_runs_root(db, tmp_path)
        assert counts == {INGESTED: 3, UPDATED: 0, UNCHANGED: 0,
                          SKIPPED: 0}
        assert ingest_runs_root(db, tmp_path)[UNCHANGED] == 3

    def test_rebuildable_index_after_deletion(self, tmp_path):
        """DESIGN decision 13: delete the DB, re-ingest, nothing is lost."""
        run_dir = make_run_dir(
            tmp_path, "r1",
            {"command": "compare", "status": "completed"},
            [{"t": 1.0, "kind": "run_started"}],
        )
        db_path = tmp_path / "db.sqlite3"
        conn = connect(db_path)
        ingest_run_dir(conn, run_dir, root=tmp_path)
        before = export_manifest(conn, "r1")
        conn.close()
        db_path.unlink()
        conn = connect(db_path)
        try:
            assert ingest_run_dir(conn, run_dir, root=tmp_path) == INGESTED
            assert export_manifest(conn, "r1") == before
        finally:
            conn.close()


class TestQueries:
    def _seed(self, db, tmp_path):
        runs = [
            ("r1", {"command": "compare", "status": "completed",
                    "machine": "m", "llc": "l",
                    "started": "2026-08-01T00:00:00Z",
                    "workloads": ["swaptions"], "policies": ["lru"],
                    "argv": ["compare", "--policies", "lru"],
                    "duration_s": 1.0}),
            ("r2", {"command": "compare", "status": "completed",
                    "machine": "m", "llc": "l",
                    "started": "2026-08-02T00:00:00Z",
                    "workloads": ["water"], "policies": ["srrip"],
                    "argv": ["compare", "--policies", "srrip"],
                    "duration_s": 3.0}),
            ("r3", {"command": "sweep", "status": "failed",
                    "machine": "m", "llc": "l",
                    "started": "2026-08-03T00:00:00Z",
                    "workloads": ["swaptions", "water"]}),
        ]
        for run_id, manifest in runs:
            ingest_run_dir(db, make_run_dir(tmp_path, run_id, manifest),
                           root=tmp_path)

    def test_query_runs_filters(self, tmp_path, db):
        self._seed(db, tmp_path)
        assert [r["run_id"] for r in query_runs(db)] == ["r1", "r2", "r3"]
        assert [r["run_id"] for r in query_runs(db, status="failed")] \
            == ["r3"]
        assert [r["run_id"] for r in query_runs(db, command="compare")] \
            == ["r1", "r2"]
        assert [r["run_id"] for r in query_runs(db, workload="water")] \
            == ["r2", "r3"]
        assert [r["run_id"] for r in query_runs(db, policy="lru")] \
            == ["r1"]
        assert [r["run_id"] for r in query_runs(
            db, since="2026-08-02")] == ["r2", "r3"]
        assert [r["run_id"] for r in query_runs(
            db, until="2026-08-02")] == ["r1", "r2"]
        assert [r["run_id"] for r in query_runs(db, limit=1)] == ["r3"]

    def test_get_run_prefix_and_errors(self, tmp_path, db):
        self._seed(db, tmp_path)
        assert get_run(db, "r2")["run_id"] == "r2"
        with pytest.raises(ConfigError, match="ambiguous"):
            get_run(db, "r")
        with pytest.raises(ConfigError, match="no run"):
            get_run(db, "zz")

    def test_list_experiments_groups(self, tmp_path, db):
        self._seed(db, tmp_path)
        experiments = {e["command"]: e for e in list_experiments(db)}
        assert experiments["compare"]["runs"] == 2
        assert experiments["compare"]["completed"] == 2
        assert experiments["sweep"]["failed"] == 1

    def test_reconstruct_invocation(self, tmp_path, db):
        self._seed(db, tmp_path)
        rendered, argv = reconstruct_invocation(db, "r1")
        assert rendered == "repro-sim compare --policies lru"
        assert argv == ["compare", "--policies", "lru"]
        with pytest.raises(ConfigError, match="recorded no argv"):
            reconstruct_invocation(db, "r3")

    def test_run_detail_aggregates_spans(self, tmp_path, db):
        manifest = {"command": "compare", "status": "completed",
                    "failures": [{"kind": "compare", "workload": "w",
                                  "error_type": "ValueError",
                                  "error": "boom", "attempts": 2}]}
        events = [
            {"t": 1.0, "kind": "span", "stage": "replay",
             "duration_s": 0.5},
            {"t": 2.0, "kind": "span", "stage": "replay",
             "duration_s": 1.5},
        ]
        ingest_run_dir(db, make_run_dir(tmp_path, "r9", manifest, events),
                       root=tmp_path)
        detail = run_detail(db, "r9")
        assert detail["stages"] == [{"stage": "replay", "spans": 2,
                                     "total_s": 2.0, "mean_s": 1.0,
                                     "max_s": 1.5}]
        assert detail["cells"][0]["error_type"] == "ValueError"

    def test_run_regressions_flags_slowdown(self, tmp_path, db):
        self._seed(db, tmp_path)
        report = run_regressions(db, metric="duration_s", tolerance=0.5)
        assert report["direction"] == "lower"
        assert report["regressions"] == 1
        assert not report["ok"]
        assert report["comparisons"][0]["ratio"] == ratio(3.0, 1.0)
        assert run_regressions(db, metric="duration_s",
                               tolerance=5.0)["ok"]


class TestTail:
    def _write_events(self, run_dir, events):
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / telemetry.EVENTS_NAME, "w",
                  encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

    def test_tail_renders_progress_and_exit_status(self, tmp_path):
        run_dir = tmp_path / "r1"
        self._write_events(run_dir, [
            {"kind": "run_started", "command": "compare"},
            {"kind": "cells_start", "total": 2, "jobs": 1},
            {"kind": "cell_done", "cell_kind": "compare", "workload": "w",
             "duration_s": 0.25},
            {"kind": "cell_failed", "cell_kind": "compare",
             "workload": "x", "attempts": 3, "error_type": "ValueError",
             "error": "boom"},
            {"kind": "cells_done", "total": 2, "failed": 1},
            {"kind": "run_finished", "status": "completed_with_failures"},
        ])
        out = io.StringIO()
        status = tail_run(run_dir, follow=False, out=out)
        text = out.getvalue()
        assert status == 0  # completed_with_failures still completed
        assert "cell 1/2 ok" in text
        assert "FAILED (compare, x)" in text
        assert "run finished: completed_with_failures" in text

    def test_tail_failed_run_exits_nonzero(self, tmp_path):
        run_dir = tmp_path / "r1"
        self._write_events(run_dir, [
            {"kind": "run_finished", "status": "failed"},
        ])
        assert tail_run(run_dir, follow=False, out=io.StringIO()) == 1

    def test_tail_json_mode_passes_raw_lines(self, tmp_path):
        run_dir = tmp_path / "r1"
        events = [{"kind": "run_started", "command": "compare"},
                  {"kind": "run_finished", "status": "completed"}]
        self._write_events(run_dir, events)
        out = io.StringIO()
        assert tail_run(run_dir, follow=False, json_mode=True,
                        out=out) == 0
        lines = [json.loads(line) for line in
                 out.getvalue().strip().splitlines()]
        assert lines == events

    def test_tail_skips_torn_lines_and_follows_appends(self, tmp_path):
        run_dir = tmp_path / "r1"
        self._write_events(run_dir, [{"kind": "run_started",
                                      "command": "x"}])
        events_path = run_dir / telemetry.EVENTS_NAME
        with open(events_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "torn')  # no newline: mid-write

        def append_rest(_seconds):
            with open(events_path, "a", encoding="utf-8") as handle:
                handle.write(' event"}\n')
                handle.write(json.dumps({"kind": "run_finished",
                                         "status": "completed"}) + "\n")

        out = io.StringIO()
        assert tail_run(run_dir, follow=True, out=out,
                        sleep=append_rest) == 0
        assert "run finished: completed" in out.getvalue()

    def test_tail_timeout_returns_cleanly(self, tmp_path):
        run_dir = tmp_path / "r1"
        self._write_events(run_dir, [{"kind": "run_started",
                                      "command": "x"}])
        ticks = iter([0.0, 0.0, 10.0, 20.0, 30.0])
        out = io.StringIO()
        status = tail_run(run_dir, follow=True, timeout=5.0, out=out,
                          sleep=lambda _s: None,
                          clock=lambda: next(ticks))
        assert status == 0
        assert "timeout" in out.getvalue()


class TestCli:
    def _ingested(self, tmp_path, capsys):
        """A cache dir with one real run, ingested."""
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        assert main(["db", "ingest", "--cache-dir", cache]) == 0
        capsys.readouterr()
        return cache

    def test_db_subcommands_smoke(self, capsys, tmp_path):
        cache = self._ingested(tmp_path, capsys)

        assert main(["db", "experiments", "--cache-dir", cache]) == 0
        assert "compare" in capsys.readouterr().out

        assert main(["db", "runs", "--cache-dir", cache, "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert len(runs) == 1
        run_id = runs[0]["run_id"]

        assert main(["db", "show", run_id[:10], "--cache-dir",
                     cache]) == 0
        out = capsys.readouterr().out
        assert "Stage spans" in out

        assert main(["db", "replay", run_id, "--cache-dir", cache,
                     "--json"]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["argv"][0] == "compare"
        assert replay["command"].startswith("repro-sim compare")

        assert main(["db", "export", run_id, "--cache-dir", cache]) == 0
        exported = capsys.readouterr().out
        source = (telemetry.resolve_runs_root(cache_dir=cache) / run_id /
                  telemetry.MANIFEST_NAME).read_text(encoding="utf-8")
        assert exported == source

        assert main(["db", "tail", run_id, "--cache-dir", cache,
                     "--no-follow"]) == 0
        assert "run finished" in capsys.readouterr().out

    def test_db_runs_filters_through_cli(self, capsys, tmp_path):
        cache = self._ingested(tmp_path, capsys)
        assert main(["db", "runs", "--cache-dir", cache, "--workload",
                     "swaptions", "--status", "completed", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["runs"]) == 1
        assert main(["db", "runs", "--cache-dir", cache, "--workload",
                     "nonexistent", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == []

    def test_db_regressions_gate_through_cli(self, capsys, tmp_path):
        # Two runs of one experiment; the second is planted 3x slower.
        root = tmp_path / "runs"
        for run_id, started, duration in (
            ("r1", "2026-08-01T00:00:00Z", 1.0),
            ("r2", "2026-08-02T00:00:00Z", 3.0),
        ):
            make_run_dir(root, run_id, {
                "command": "compare", "status": "completed",
                "machine": "m", "llc": "l", "started": started,
                "duration_s": duration,
            })
        db_path = tmp_path / "elsewhere.sqlite3"
        store = ["--runs-root", str(root), "--db", str(db_path)]
        assert main(["db", "ingest", *store]) == 0
        assert db_path.is_file()
        capsys.readouterr()
        assert main(["db", "regressions", *store, "--tolerance", "0.5",
                     "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["metric"] == "duration_s"
        assert report["regressions"] == 1
        assert report["comparisons"][0]["run"] == "r2"
        assert main(["db", "regressions", *store, "--tolerance", "5"]) == 0
        assert "r2" in capsys.readouterr().out

    def test_db_query_without_database_is_an_error(self, capsys,
                                                   tmp_path):
        assert main(["db", "runs", "--cache-dir",
                     str(tmp_path / "empty")]) == 2
        assert "no experiment database" in capsys.readouterr().err

    def test_runs_list_shows_event_summaries(self, capsys, tmp_path):
        cache = self._ingested(tmp_path, capsys)
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "run_finished" in out

    def test_runs_show_sweeps_orphan_manifests(self, capsys, tmp_path):
        import os

        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        root = telemetry.resolve_runs_root(cache_dir=cache)
        run_id = telemetry.list_runs(root)[0].run_id
        orphan = root / run_id / f"tmp999-{telemetry.MANIFEST_NAME}"
        orphan.write_text("{}", encoding="utf-8")
        stale = telemetry._ORPHAN_GRACE_SEC + 60
        os.utime(orphan, (orphan.stat().st_atime - stale,
                          orphan.stat().st_mtime - stale))
        assert main(["runs", "show", run_id, "--cache-dir", cache]) == 0
        assert "swept 1 orphaned manifest" in capsys.readouterr().err
        assert not orphan.exists()
