"""Run-telemetry layer: manifests, event logs, inspection, CLI wiring.

The last test class is the issue's acceptance scenario: a sweep whose
worker is forced to crash mid-run must still complete with partial
results, record the failed cell in the run manifest, and exit nonzero
only under ``--fail-fast``; ``--no-telemetry`` must leave stdout
byte-identical and write nothing.
"""

import json
import shlex

import pytest

from repro.cli import main
from repro.common.errors import ConfigError
from repro.sim import telemetry
from repro.sim.experiment import ExperimentContext
from repro.sim.parallel import FAULT_ENV


@pytest.fixture
def run(tmp_path):
    return telemetry.create_run(tmp_path, command="test", argv=["--x"])


class TestRunLifecycle:
    def test_create_run_writes_seed_manifest(self, tmp_path, run):
        assert run.run_dir.parent == tmp_path
        manifest = json.loads(
            (run.run_dir / telemetry.MANIFEST_NAME).read_text()
        )
        assert manifest["format_version"] == telemetry.TELEMETRY_FORMAT_VERSION
        assert manifest["run_id"] == run.run_id
        assert manifest["command"] == "test"
        assert manifest["argv"] == ["--x"]
        assert manifest["status"] == "running"
        events = telemetry.read_events(run.run_dir)
        assert events[0]["kind"] == "run_started"
        assert events[0]["role"] == "main"

    def test_same_second_runs_get_distinct_dirs(self, tmp_path):
        first = telemetry.create_run(tmp_path)
        second = telemetry.create_run(tmp_path)
        assert first.run_dir != second.run_dir
        assert first.run_dir.is_dir() and second.run_dir.is_dir()

    def test_update_manifest_merges_and_leaves_no_tmp(self, run):
        run.update_manifest(machine="tiny")
        run.update_manifest(seed=7)
        manifest = json.loads(run.manifest_path.read_text())
        assert manifest["machine"] == "tiny"
        assert manifest["seed"] == 7
        leftovers = [p for p in run.run_dir.iterdir()
                     if p.name.startswith("tmp")]
        assert leftovers == []

    def test_finish_seals_status_and_wall_time(self, run):
        run.finish(status="completed")
        manifest = json.loads(run.manifest_path.read_text())
        assert manifest["status"] == "completed"
        assert manifest["wall_sec"] >= 0
        assert manifest["finished"].endswith("Z")
        assert telemetry.read_events(run.run_dir)[-1]["kind"] == "run_finished"

    def test_worker_cannot_touch_manifest_but_shares_events(self, run):
        worker = telemetry.attach_worker(run.run_dir)
        worker.update_manifest(hijacked=True)
        assert "hijacked" not in json.loads(run.manifest_path.read_text())
        worker.event("span", stage="replay", wall_sec=0.5)
        roles = {e["role"] for e in telemetry.read_events(run.run_dir)}
        assert roles == {"main", "worker"}

    def test_raising_sink_is_detached_not_fatal(self, run, capsys):
        class Exploding:
            def on_event(self, record):
                raise RuntimeError("sink died")

            def close(self):
                pass

        run.attach_sink(Exploding())
        run.event("one")
        run.event("two")
        run.finish(status="completed")
        err = capsys.readouterr().err
        assert err.count("telemetry sink") == 1
        assert telemetry.read_events(run.run_dir)[-1]["kind"] == \
            "run_finished"

    def test_event_survives_deleted_run_dir(self, run, tmp_path):
        import shutil

        shutil.rmtree(run.run_dir)
        run.event("orphan")  # must not raise
        run.update_manifest(orphan=True)  # must not raise


class TestManifestHardening:
    def test_failed_replace_leaves_no_tmp(self, run, monkeypatch):
        # A write that dies between tmp-write and publish (disk full,
        # permission flip) must neither raise nor leak the temp file.
        before = json.loads(run.manifest_path.read_text())

        def broken_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(telemetry.os, "replace", broken_replace)
        run.update_manifest(machine="tiny")  # must not raise
        monkeypatch.undo()
        leftovers = [p for p in run.run_dir.iterdir()
                     if p.name.startswith("tmp")]
        assert leftovers == []
        # The published manifest is the last good one, not a torn write.
        assert json.loads(run.manifest_path.read_text()) == before

    def test_failed_fsync_leaves_no_tmp(self, run, monkeypatch):
        def broken_fsync(fd):
            raise OSError("simulated fsync failure")

        monkeypatch.setattr(telemetry.os, "fsync", broken_fsync)
        run.update_manifest(seed=7)  # must not raise
        monkeypatch.undo()
        leftovers = [p for p in run.run_dir.iterdir()
                     if p.name.startswith("tmp")]
        assert leftovers == []

    def test_orphan_sweep_removes_stale_spares_fresh(self, tmp_path, run):
        import os as _os

        stale = run.run_dir / f"tmp99999-{telemetry.MANIFEST_NAME}"
        stale.write_text("{}")
        _os.utime(stale, (1, 1))  # ancient
        fresh = run.run_dir / f"tmp88888-{telemetry.MANIFEST_NAME}"
        fresh.write_text("{}")  # mtime now: a live writer's in-flight tmp
        unrelated = run.run_dir / "tmpnotapid-manifest.json"
        unrelated.write_text("{}")
        _os.utime(unrelated, (1, 1))

        assert telemetry.orphan_manifest_tmps(tmp_path) == [stale]
        removed = telemetry.sweep_orphan_manifests(tmp_path)
        assert removed == [stale]
        assert not stale.exists()
        assert fresh.exists()      # grace period protects live writers
        assert unrelated.exists()  # only the tmp{pid}- pattern is swept
        # The real manifest is untouched.
        assert run.manifest_path.exists()

    def test_sweep_missing_root_is_empty(self, tmp_path):
        assert telemetry.sweep_orphan_manifests(tmp_path / "nope") == []

    def test_runs_list_sweeps_orphans(self, capsys, tmp_path):
        import os as _os

        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        run_dir = runs_under(cache)[0].path
        stale = run_dir / f"tmp77777-{telemetry.MANIFEST_NAME}"
        stale.write_text("{}")
        _os.utime(stale, (1, 1))
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert not stale.exists()
        assert "swept 1 orphaned manifest temp" in captured.err
        # A clean second listing stays quiet.
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        assert "swept" not in capsys.readouterr().err


class TestSpansAndCurrent:
    def test_span_records_wall_time_and_extras(self, run):
        with run.span("trace_gen", workload="water") as extras:
            extras["accesses"] = 123
        event = telemetry.read_events(run.run_dir)[-1]
        assert event["kind"] == "span"
        assert event["stage"] == "trace_gen"
        assert event["workload"] == "water"
        assert event["accesses"] == 123
        assert event["wall_sec"] >= 0

    def test_span_on_error_records_and_reraises(self, run):
        with pytest.raises(ValueError):
            with run.span("replay"):
                raise ValueError("boom")
        event = telemetry.read_events(run.run_dir)[-1]
        assert event["stage"] == "replay"
        assert event["error"] == "ValueError"

    def test_module_helpers_are_noops_when_disabled(self):
        assert telemetry.current() is None
        telemetry.emit("ignored", x=1)  # must not raise
        with telemetry.span("ignored") as extras:
            extras["y"] = 2  # throwaway dict

    def test_activate_scopes_the_current_run(self, run):
        assert telemetry.current() is None
        with telemetry.activate(run):
            assert telemetry.current() is run
            telemetry.emit("scoped", ok=True)
        assert telemetry.current() is None
        kinds = [e["kind"] for e in telemetry.read_events(run.run_dir)]
        assert "scoped" in kinds

    def test_describe_environment_reports_context(self, tiny_machine):
        context = ExperimentContext(
            tiny_machine, target_accesses=2000, seed=3,
            workloads=["water"],
        )
        fields = telemetry.describe_environment(context)
        assert fields["machine"] == "tiny"
        assert fields["seed"] == 3
        assert fields["target_accesses"] == 2000
        assert fields["workloads"] == ["water"]
        assert isinstance(fields["fastpath"], bool)
        assert "repro_version" in fields
        assert fields["numpy_version"]


class TestInspection:
    def test_list_runs_oldest_first_and_corrupt_tolerated(self, tmp_path):
        first = telemetry.create_run(tmp_path, command="a")
        second = telemetry.create_run(tmp_path, command="b")
        (second.run_dir / telemetry.MANIFEST_NAME).write_text("{not json")
        (tmp_path / "not-a-run").mkdir()  # no manifest: skipped
        runs = telemetry.list_runs(tmp_path)
        assert [r.run_id for r in runs] == [first.run_id, second.run_id]
        assert runs[0].manifest["command"] == "a"
        assert runs[1].status == "corrupt"

    def test_list_runs_missing_root_is_empty(self, tmp_path):
        assert telemetry.list_runs(tmp_path / "nowhere") == []

    def test_load_run_accepts_unique_prefix(self, tmp_path, run):
        info = telemetry.load_run(run.run_id, tmp_path)
        assert info.run_id == run.run_id
        info = telemetry.load_run(run.run_id[:-2], tmp_path)
        assert info.run_id == run.run_id
        with pytest.raises(ConfigError):
            telemetry.load_run("zzz-no-such-run", tmp_path)

    def test_load_run_ambiguous_prefix_rejected(self, tmp_path):
        telemetry.create_run(tmp_path)
        telemetry.create_run(tmp_path)
        with pytest.raises(ConfigError):
            telemetry.load_run("2", tmp_path)  # both ids share the prefix

    def test_read_events_skips_torn_lines(self, run):
        run.event("good", n=1)
        with open(run.events_path, "a") as handle:
            handle.write('{"kind": "torn", "n\n')  # killed mid-write
        run.event("after", n=2)
        kinds = [e["kind"] for e in telemetry.read_events(run.run_dir)]
        assert "torn" not in kinds
        assert kinds[-2:] == ["good", "after"]

    def test_summarize_spans_aggregates_per_stage(self):
        events = [
            {"kind": "span", "stage": "replay", "wall_sec": 1.0},
            {"kind": "span", "stage": "replay", "wall_sec": 3.0},
            {"kind": "span", "stage": "trace_gen", "wall_sec": 0.5},
            {"kind": "cell_retry"},
        ]
        stages = telemetry.summarize_spans(events)
        assert stages["replay"].as_dict() == {
            "count": 2, "total": 4.0, "mean": 2.0, "min": 1.0, "max": 3.0,
        }
        assert stages["trace_gen"].count == 1

    def test_summarize_replays_counts_tier_backend_reason(self):
        events = [
            {"kind": "span", "stage": "replay", "tier": "scalar",
             "backend": "model", "reason": "observers"},
            {"kind": "span", "stage": "replay", "tier": "scalar",
             "backend": "model", "reason": "observers"},
            {"kind": "span", "stage": "replay_grid", "tier": "grid",
             "backend": "numpy"},
            {"kind": "span", "stage": "inspect_replay", "tier": "stack"},
            {"kind": "span", "stage": "trace_gen"},
        ]
        assert telemetry.summarize_replays(events) == {
            ("scalar", "model", "observers"): 2,
            ("grid", "numpy", ""): 1,
            ("stack", "", ""): 1,  # logged before backend and reason
        }

    def test_resolve_runs_root_precedence(self, tmp_path, monkeypatch):
        explicit = telemetry.resolve_runs_root(
            tmp_path / "explicit", cache_dir=tmp_path / "cache"
        )
        assert explicit == tmp_path / "explicit"
        from_cache = telemetry.resolve_runs_root(cache_dir=tmp_path / "cache")
        assert from_cache == tmp_path / "cache" / telemetry.RUNS_DIRNAME
        monkeypatch.setenv(telemetry.RUNS_DIR_ENV, str(tmp_path / "env"))
        assert telemetry.resolve_runs_root() == tmp_path / "env"


FAST = ["--accesses", "3000", "--workloads", "swaptions", "water"]


def runs_under(cache_dir):
    """Runs recorded beneath a CLI ``--cache-dir``."""
    return telemetry.list_runs(telemetry.resolve_runs_root(cache_dir=cache_dir))


class TestCliTelemetry:
    def test_compare_records_a_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        err = capsys.readouterr().err
        assert "telemetry: run" in err
        runs = runs_under(cache)
        assert len(runs) == 1
        manifest = runs[0].manifest
        assert manifest["status"] == "completed"
        assert manifest["command"] == "compare"
        assert manifest["workloads"] == ["swaptions", "water"]
        assert manifest["cells"] == {"total": 2, "completed": 2, "failed": 0}
        stages = telemetry.summarize_spans(telemetry.read_events(runs[0].path))
        assert "replay" in stages
        assert "trace_gen" in stages
        assert "hierarchy_record" in stages

    def test_runs_list_and_show(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "Telemetry runs" in out
        assert "compare" in out
        run_id = runs_under(cache)[0].run_id
        assert main(["runs", "show", run_id[:10], "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out
        assert "Stage spans" in out
        assert "replay" in out

    def test_runs_show_without_id_is_an_error(self, capsys):
        assert main(["runs", "show"]) == 2
        assert "needs a run id" in capsys.readouterr().err

    def test_runs_tail_without_id_is_an_error(self, capsys):
        assert main(["runs", "tail", "--no-follow"]) == 2
        assert "'runs tail' needs a run id" in capsys.readouterr().err

    def test_runs_list_shows_event_summaries(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        # A runs root upgraded from a release that kept a SQLite index of
        # its runs still holds the database files; they list as nothing.
        root = telemetry.resolve_runs_root(cache_dir=cache)
        for name in ("expdb.sqlite3", "expdb.sqlite3-wal"):
            (root / name).write_bytes(b"SQLite format 3\x00")
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        [row] = [line for line in out.splitlines()
                 if line.startswith(f"| {runs_under(cache)[0].run_id}")]
        events = telemetry.read_events(runs_under(cache)[0].path)
        assert f"| {len(events)} | run_finished |" in " ".join(row.split())

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

    def test_runs_show_prints_the_command_line(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["compare", *FAST, "--policies", "lru", "--cache-dir", cache]
        assert main(argv) == 0
        run_id = runs_under(cache)[0].run_id
        library_run = telemetry.create_run(
            telemetry.resolve_runs_root(cache_dir=cache), command="compare")
        capsys.readouterr()
        assert main(["runs", "show", run_id, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert f"| repro-sim {shlex.join(argv)} |" in out
        assert "argv" not in out
        # A run created through the library API recorded no argv.
        assert main(["runs", "show", library_run.run_id,
                     "--cache-dir", cache]) == 0
        assert "command line" not in capsys.readouterr().out

    def test_runs_tail_drains_a_real_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        run_id = runs_under(cache)[0].run_id
        assert main(["runs", "tail", run_id[:10], "--no-follow",
                     "--cache-dir", cache]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "run started: compare"
        assert "cell 2/2 ok: (compare, water)" in "\n".join(lines)
        assert lines[-1] == "run finished: completed"

    def test_no_telemetry_is_byte_identical_and_writes_nothing(
        self, capsys, tmp_path
    ):
        with_cache = str(tmp_path / "with")
        without_cache = str(tmp_path / "without")
        args = ["compare", *FAST, "--policies", "lru", "srrip"]
        assert main([*args, "--cache-dir", with_cache]) == 0
        with_telemetry = capsys.readouterr().out
        assert main([*args, "--no-telemetry",
                     "--cache-dir", without_cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == with_telemetry
        assert "telemetry" not in captured.err
        assert runs_under(without_cache) == []
        assert not (tmp_path / "without" / telemetry.RUNS_DIRNAME).exists()

    def test_failed_run_is_sealed_as_failed(self, capsys, tmp_path,
                                            monkeypatch):
        cache = str(tmp_path / "cache")
        monkeypatch.setenv(FAULT_ENV, "compare:water:raise")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache, "--fail-fast",
                     "--retries", "0"]) == 2
        assert "error:" in capsys.readouterr().err
        runs = runs_under(cache)
        assert runs[0].status == "failed"
        assert "injected fault" in runs[0].manifest["error"]


class TestCrashAcceptance:
    """A sweep with one worker forced to crash completes with partial
    results, records the failure in the manifest, and exits nonzero only
    under ``--fail-fast``."""

    def test_graceful_sweep_survives_worker_crash(self, capsys, tmp_path,
                                                  monkeypatch):
        cache = str(tmp_path / "cache")
        monkeypatch.setenv(FAULT_ENV, "sweep_grid:water:exit")
        assert main(["sweep", *FAST, "--jobs", "2", "--retries", "1",
                     "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "avg_oracle_red" in captured.out  # partial table rendered
        assert "warning: cell (sweep_grid, water)" in captured.err
        runs = runs_under(cache)
        manifest = runs[0].manifest
        assert manifest["status"] == "completed_with_failures"
        assert manifest["cells"]["failed"] >= 1
        assert manifest["cells"]["completed"] >= 1
        failed = {f["workload"] for f in manifest["failures"]}
        assert "water" in failed

    def test_fail_fast_sweep_exits_nonzero(self, capsys, tmp_path,
                                           monkeypatch):
        cache = str(tmp_path / "cache")
        monkeypatch.setenv(FAULT_ENV, "sweep_grid:water:exit")
        assert main(["sweep", *FAST, "--jobs", "2", "--fail-fast",
                     "--cache-dir", cache]) == 2
        assert "worker process died" in capsys.readouterr().err
        runs = runs_under(cache)
        assert runs[0].status == "failed"


class TestCorruptionHardening:
    """Satellite: every reader degrades to a warning, never a traceback."""

    def test_list_runs_reports_invalid_json(self, tmp_path):
        run = telemetry.create_run(tmp_path, command="a")
        (run.run_dir / telemetry.MANIFEST_NAME).write_text("{not json")
        errors = []
        runs = telemetry.list_runs(
            tmp_path, on_error=lambda path, detail: errors.append(detail)
        )
        assert runs[0].status == "corrupt"
        assert errors and "not valid JSON" in errors[0]

    def test_list_runs_reports_non_object_manifest(self, tmp_path):
        run = telemetry.create_run(tmp_path, command="a")
        (run.run_dir / telemetry.MANIFEST_NAME).write_text('[1, 2, 3]')
        errors = []
        runs = telemetry.list_runs(
            tmp_path, on_error=lambda path, detail: errors.append(detail)
        )
        assert runs[0].status == "corrupt"
        assert errors and "not a JSON object" in errors[0]

    def test_read_events_counts_skipped_lines(self, run):
        run.event("good")
        with open(run.events_path, "a") as handle:
            handle.write('"a bare string"\n')   # valid JSON, wrong shape
            handle.write('{"kind": "torn\n')    # killed mid-write
        run.event("after")
        reported = []
        events = telemetry.read_events(
            run.run_dir, on_error=lambda path, count: reported.append(count)
        )
        assert [e["kind"] for e in events][-2:] == ["good", "after"]
        assert reported == [2]

    def test_summarize_spans_tolerates_malformed_events(self):
        events = [
            {"kind": "span", "stage": "replay", "wall_sec": 1.0},
            {"kind": "span", "stage": "replay", "wall_sec": "garbage"},
            {"kind": "span", "stage": "replay"},  # missing wall_sec -> 0
            {"kind": "span", "stage": 7, "wall_sec": 1.0},
            "not an event at all",
        ]
        stages = telemetry.summarize_spans(events)
        assert stages["replay"].count == 2
        assert stages["replay"].total == 1.0
        assert stages["7"].count == 1

    def test_runs_list_warns_but_succeeds_on_corrupt_manifest(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        run = runs_under(cache)[0]
        (run.path / telemetry.MANIFEST_NAME).write_text("{half a manif")
        assert main(["runs", "list", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "Traceback" not in captured.err
        assert "corrupt" in captured.out

    def test_runs_show_warns_but_succeeds_on_corrupt_events(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        run = runs_under(cache)[0]
        with open(run.path / telemetry.EVENTS_NAME, "a") as handle:
            handle.write("][ not json\n")
        assert main(["runs", "show", run.run_id, "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "skipped 1 malformed" in captured.err
        assert "Stage spans" in captured.out

    def test_runs_show_survives_manifest_of_wrong_shapes(
        self, capsys, tmp_path
    ):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        run = runs_under(cache)[0]
        manifest = json.loads(
            (run.path / telemetry.MANIFEST_NAME).read_text()
        )
        manifest["cells"] = "everything is strings now"
        manifest["workloads"] = {"wrong": "shape"}
        manifest["failures"] = ["not a dict", {"kind": "x", "workload": "y",
                                               "error_type": "E",
                                               "error": "boom"}]
        (run.path / telemetry.MANIFEST_NAME).write_text(
            json.dumps(manifest)
        )
        assert main(["runs", "show", run.run_id, "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "manifest" in captured.out


class TestSchemaVersioning:
    """Satellite contracts: versioned events, monotonic durations."""

    def test_events_carry_schema_version(self, run):
        run.event("probe")
        event = telemetry.read_events(run.run_dir)[-1]
        assert event["schema_version"] == telemetry.EVENT_SCHEMA_VERSION

    def test_manifest_carries_event_schema_version(self, run):
        assert run.manifest["event_schema_version"] == \
            telemetry.EVENT_SCHEMA_VERSION

    def test_finish_records_monotonic_duration(self, run):
        run.finish(status="completed")
        manifest = json.loads(
            (run.run_dir / telemetry.MANIFEST_NAME).read_text()
        )
        assert manifest["duration_s"] >= 0.0
        finished = telemetry.read_events(run.run_dir)[-1]
        assert finished["duration_s"] == manifest["duration_s"]

    def test_spans_record_duration_s(self, run):
        with telemetry.activate(run):
            with telemetry.span("stage_x"):
                pass
        event = telemetry.read_events(run.run_dir)[-1]
        assert event["duration_s"] == event["wall_sec"]

    def test_future_event_version_warns_not_crashes(self, run):
        run.event("probe")
        with open(run.run_dir / telemetry.EVENTS_NAME, "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"t": 1.0, "kind": "from_the_future",
                 "schema_version": telemetry.EVENT_SCHEMA_VERSION + 7}
            ) + "\n")
        futures = []
        events = telemetry.read_events(
            run.run_dir,
            on_future=lambda path, version: futures.append(version),
        )
        # Future events are still returned: known fields keep meaning.
        assert events[-1]["kind"] == "from_the_future"
        assert futures == [telemetry.EVENT_SCHEMA_VERSION + 7]

    def test_future_manifest_version_warns_in_list(self, tmp_path):
        run = telemetry.create_run(tmp_path, command="a")
        manifest = json.loads(
            (run.run_dir / telemetry.MANIFEST_NAME).read_text()
        )
        manifest["format_version"] = telemetry.TELEMETRY_FORMAT_VERSION + 3
        (run.run_dir / telemetry.MANIFEST_NAME).write_text(
            json.dumps(manifest)
        )
        warnings = []
        runs = telemetry.list_runs(
            tmp_path,
            on_error=lambda path, detail: warnings.append(detail),
        )
        assert len(runs) == 1  # still listed, best-effort
        assert any("newer" in w for w in warnings)

    def test_read_events_tolerates_non_utf8_garbage(self, run):
        run.event("probe")
        with open(run.run_dir / telemetry.EVENTS_NAME, "ab") as handle:
            handle.write(b"\x80\xff garbage\n")
        errors = []
        events = telemetry.read_events(
            run.run_dir,
            on_error=lambda path, count: errors.append(count),
        )
        assert [e["kind"] for e in events] == ["run_started", "probe"]
        assert errors == [1]


class TestQuickEventSummary:
    def test_missing_log_is_zero(self, tmp_path):
        summary = telemetry.quick_event_summary(tmp_path)
        assert summary == {"events": 0, "approx": False,
                           "last_kind": None, "last_t": None}

    def test_small_log_counts_exactly(self, run):
        for index in range(5):
            run.event("probe", index=index)
        run.event("run_finished")
        summary = telemetry.quick_event_summary(run.run_dir)
        assert summary["events"] == 7  # run_started + 5 probes + finish
        assert summary["approx"] is False
        assert summary["last_kind"] == "run_finished"
        assert isinstance(summary["last_t"], float)

    def test_large_log_is_capped_and_extrapolated(self, run):
        line = json.dumps({"t": 1.0, "kind": "probe",
                           "pad": "x" * 100}) + "\n"
        with open(run.run_dir / telemetry.EVENTS_NAME, "w",
                  encoding="utf-8") as handle:
            for _ in range(500):
                handle.write(line)
        summary = telemetry.quick_event_summary(
            run.run_dir, exact_bytes=4096, tail_bytes=1024
        )
        assert summary["approx"] is True
        assert summary["last_kind"] == "probe"
        # Uniform lines: the tail extrapolation lands near the true count.
        assert abs(summary["events"] - 500) <= 75

    def test_torn_final_line_still_counted(self, run):
        run.event("probe")
        with open(run.run_dir / telemetry.EVENTS_NAME, "a",
                  encoding="utf-8") as handle:
            handle.write('{"kind": "torn')
        summary = telemetry.quick_event_summary(run.run_dir)
        assert summary["events"] == 3  # run_started + probe + torn
        assert summary["last_kind"] == "probe"  # last *complete* line
