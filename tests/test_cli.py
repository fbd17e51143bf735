"""Tests for the repro-sim command-line interface."""

import os
import re

import pytest

from repro.cli import build_parser, main
from repro.sim import telemetry
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.nativepath import NO_NATIVE_ENV

FAST = ["--accesses", "3000", "--workloads", "swaptions", "water"]


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "canneal" in out
        assert "srrip" in out
        assert "scaled-4mb" in out

    def test_characterize(self, capsys):
        assert main(["characterize", *FAST]) == 0
        out = capsys.readouterr().out
        assert "shared_hit_frac" in out
        assert "water" in out
        assert "mean" in out

    def test_compare_with_opt(self, capsys):
        assert main(["compare", *FAST, "--policies", "lru", "srrip", "--opt"]) == 0
        out = capsys.readouterr().out
        assert "opt" in out
        assert "lru" in out

    def test_oracle(self, capsys):
        assert main(["oracle", *FAST, "--base", "lru"]) == 0
        out = capsys.readouterr().out
        assert "miss_reduction" in out

    def test_predict(self, capsys):
        assert main(["predict", *FAST, "--predictors", "address", "pc"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "water/pc" in out

    def test_sweep(self, capsys):
        assert main(["sweep", *FAST]) == 0
        out = capsys.readouterr().out
        assert "avg_oracle_red" in out

    def test_phases(self, capsys):
        assert main(["phases", *FAST]) == 0
        out = capsys.readouterr().out
        assert "last_value_acc" in out
        assert "mixed_pcs" in out

    def test_mix(self, capsys):
        assert main(["mix", "--accesses", "3000",
                     "--components", "swaptions", "water"]) == 0
        out = capsys.readouterr().out
        assert "mix(swaptions+water)" in out
        assert "oracle miss reduction" in out

    def test_mix_oracle_uses_seed(self, capsys, monkeypatch):
        import inspect

        from repro.oracle import runner

        seeds = []

        def spy(func):
            def call(*args, **kwargs):
                bound = inspect.signature(func).bind(*args, **kwargs)
                bound.apply_defaults()
                seeds.append((func.__name__, bound.arguments["seed"]))
                return func(*args, **kwargs)
            return call

        for name in ("run_oracle_study", "shared_fill_fraction"):
            monkeypatch.setattr(runner, name, spy(getattr(runner, name)))
        assert main(["mix", "--accesses", "3000", "--seed", "5",
                     "--components", "swaptions", "water",
                     "--base", "dip"]) == 0
        assert seeds == [("run_oracle_study", 5),
                         ("shared_fill_fraction", 5)]

    def test_record_and_replay(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["record", "--accesses", "3000",
                     "--workloads", "water", "--out-prefix",
                     str(tmp_path / "s_")]) == 0
        path = str(tmp_path / "s_water.rllc.gz")
        assert main(["replay", path, "--policies", "lru", "--opt"]) == 0
        out = capsys.readouterr().out
        assert "recorded water" in out
        assert "opt" in out

    def test_unknown_workload_exits(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--workloads", "doom3"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--policies", "belady"])


class TestParallelAndCacheCli:
    def test_compare_jobs_output_identical(self, capsys):
        args = ["compare", *FAST, "--policies", "lru", "srrip"]
        assert main([*args, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sweep_jobs_runs(self, capsys):
        assert main(["sweep", *FAST, "--jobs", "2"]) == 0
        assert "avg_oracle_red" in capsys.readouterr().out

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["compare", *FAST, "--policies", "lru",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

        assert main(["cache", "info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "cached streams" in out
        assert "2" in out  # two workloads recorded

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed 4" in capsys.readouterr().out

        assert main(["cache", "info", "--cache-dir", cache]) == 0
        assert " 0 |" in capsys.readouterr().out

    def test_negative_jobs_clean_error(self, capsys):
        # Rejected by argparse at parse time, before any worker spawns.
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", *FAST, "--policies", "lru", "--jobs", "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 0" in err
        assert "Traceback" not in err

    def test_no_cache_flag_skips_disk(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["characterize", *FAST, "--no-cache",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", cache]) == 0
        assert " 0 |" in capsys.readouterr().out

    def test_cache_info_reports_orphan_tmp_files(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "tmp999-stale.rllc.gz").write_bytes(b"partial")
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "orphan tmp files" in out

        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not (cache / "tmp999-stale.rllc.gz").exists()

    def test_cache_info_reports_stale_format_entries(self, capsys, tmp_path):
        from repro.cache.stream_io import STREAM_FORMAT_VERSION

        cache = tmp_path / "cache"
        assert main(["characterize", "--accesses", "3000", "--workloads",
                     "water", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        old = STREAM_FORMAT_VERSION - 1
        (cache / f"water-x-0-n3000-s42-fv{old}.rllc.gz").write_bytes(b"o" * 7)
        (cache / f"water-x-0-n3000-s42-fv{old}.json").write_bytes(b"{}")

        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        rows = {line.split("|")[1].strip(): line.split("|")[2].strip()
                for line in capsys.readouterr().out.splitlines()
                if line.count("|") >= 3}
        assert rows["cached streams"] == "2"
        assert rows["stale format entries"] == "2"
        assert rows["stale format bytes"] == "9"

        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "removed 4" in capsys.readouterr().out
        assert not list(cache.glob("*-fv*"))


class TestFastpathCli:
    def test_no_fastpath_output_identical(self, capsys):
        args = ["characterize", *FAST]
        assert main(args) == 0
        fast = capsys.readouterr().out
        assert main([*args, "--no-fastpath"]) == 0
        scalar = capsys.readouterr().out
        assert scalar == fast

    def test_replay_accepts_no_fastpath(self, capsys, tmp_path):
        assert main(["record", "--accesses", "3000", "--workloads", "water",
                     "--out-prefix", str(tmp_path / "s_")]) == 0
        capsys.readouterr()
        path = str(tmp_path / "s_water.rllc.gz")
        assert main(["replay", path, "--policies", "lru"]) == 0
        fast = capsys.readouterr().out
        assert main(["replay", path, "--policies", "lru",
                     "--no-fastpath"]) == 0
        scalar = capsys.readouterr().out
        assert scalar == fast

    def test_oracle_no_fastpath_identical(self, capsys):
        args = ["oracle", *FAST, "--base", "lru"]
        assert main(args) == 0
        fast = capsys.readouterr().out
        assert main([*args, "--no-fastpath"]) == 0
        scalar = capsys.readouterr().out
        assert scalar == fast


class TestNoNativeCli:
    ARGS = ["compare", "--accesses", "3000", "--workloads", "water",
            "--policies", "ship"]

    @staticmethod
    def _ship_backends(cache):
        """Backends of each run's SHiP replays, oldest run first."""
        root = telemetry.resolve_runs_root(cache_dir=cache)
        return [
            {event["backend"] for event in telemetry.read_events(run.path)
             if event.get("stage") == "replay"
             and event.get("policy") == "ship"}
            for run in telemetry.list_runs(root)
        ]

    def test_no_native_is_scoped_to_its_command(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv(NO_NATIVE_ENV, raising=False)
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        cache = str(tmp_path / "cache")
        args = [*self.ARGS, "--cache-dir", cache]
        assert main([*args, "--no-native"]) == 0
        assert NO_NATIVE_ENV not in os.environ
        assert main(args) == 0
        assert self._ship_backends(cache) == [{"model"}, {"compact"}]

    def test_no_native_restores_a_user_setting(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(NO_NATIVE_ENV, "0")
        assert main([*self.ARGS, "--cache-dir", str(tmp_path / "cache"),
                     "--no-native"]) == 0
        assert os.environ[NO_NATIVE_ENV] == "0"

    def test_retired_sharding_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--kernel-jobs", "2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            "error: unrecognized arguments: --kernel-jobs 2"
        )
        assert "Traceback" not in err


class TestReplaysTable:
    """``runs show`` counts a run's replays by tier, backend and reason."""

    @pytest.mark.parametrize("args, reason", [
        (["oracle", "--base", "ship"], "observers"),
        (["oracle", "--base", "nru"], "no-kernel"),
        (["compare", "--policies", "ship", "--no-native"], "native-off"),
        (["compare", "--no-fastpath"], "fastpath-off"),
    ])
    def test_runs_show_reports_why_a_replay_declined(
        self, args, reason, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(NO_NATIVE_ENV, raising=False)
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        cache = str(tmp_path / "cache")
        assert main([*args, "--accesses", "3000", "--workloads", "water",
                     "--cache-dir", cache]) == 0
        root = telemetry.resolve_runs_root(cache_dir=cache)
        [run] = telemetry.list_runs(root)
        capsys.readouterr()
        assert main(["runs", "show", run.run_id, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        replays = out[out.index("\nReplays\n"):]
        assert re.search(rf"\| scalar +\| +model \| +{reason} \| +\d+ \|",
                         replays)


class TestNewPredictorsInCli:
    def test_predict_with_region_and_lastvalue(self, capsys):
        assert main(["predict", "--accesses", "3000", "--workloads", "water",
                     "--predictors", "region", "lastvalue"]) == 0
        out = capsys.readouterr().out
        assert "water/region" in out
        assert "water/lastvalue" in out


class TestSweepSizesValidation:
    """``--sizes`` is validated at parse time: every rejection is a one-line
    argparse error (exit code 2, no traceback, no workload ever generated)."""

    def _reject(self, capsys, sizes, fragment):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", *FAST, "--sizes", *sizes])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    def test_zero_rejected(self, capsys):
        self._reject(capsys, ["0"], "must be positive")

    def test_negative_rejected(self, capsys):
        self._reject(capsys, ["-2"], "must be positive")

    def test_non_number_rejected(self, capsys):
        self._reject(capsys, ["big"], "not a number")

    def test_non_power_of_two_rejected(self, capsys):
        self._reject(capsys, ["0.75"], "not a power of two")

    def test_duplicate_rejected(self, capsys):
        self._reject(capsys, ["0.5", "2", "0.5"], "duplicate capacity")

    def test_valid_sizes_sweep_runs(self, capsys):
        # 0.5x and 2x of the scaled-4mb 256KB LLC.
        assert main(["sweep", *FAST, "--sizes", "0.5", "2"]) == 0
        out = capsys.readouterr().out
        assert "128KB" in out
        assert "512KB" in out


class TestFuzzCli:
    FUZZ = ["fuzz", "run", "--scenarios", "4", "--seed", "7",
            "--accesses", "1200", "--no-telemetry"]

    @pytest.fixture(scope="class")
    def corpus_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "inversions.json"
        assert main([*self.FUZZ, "--output", str(path)]) == 0
        return path

    def test_run_emits_a_corpus(self, corpus_path, capsys):
        import json

        corpus = json.loads(corpus_path.read_text(encoding="utf-8"))
        assert corpus["format_version"] == 1
        assert len(corpus["scenarios"]) == 4
        assert not corpus["mismatches"]

    def test_run_renders_a_summary(self, corpus_path, capsys):
        assert main([*self.FUZZ, "--output", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert "scenarios run" in out
        assert "frontier" in out

    def test_triage(self, corpus_path, capsys):
        assert main(["fuzz", "triage", str(corpus_path)]) == 0
        out = capsys.readouterr().out
        assert "Reference frontier" in out

    def test_replay_cell(self, corpus_path, capsys):
        import json

        corpus = json.loads(corpus_path.read_text(encoding="utf-8"))
        target = corpus["scenarios"][0]["id"]
        assert main(["fuzz", "replay-cell", str(corpus_path), target]) == 0
        out = capsys.readouterr().out
        assert "matches reference sampler" in out

    def test_replay_unknown_cell_exits_2(self, corpus_path, capsys):
        assert main(["fuzz", "replay-cell", str(corpus_path),
                     "s99999"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        assert main(["fuzz", "triage", str(tmp_path / "ghost.json")]) == 2
        assert "cannot read corpus" in capsys.readouterr().err

    def test_negative_scenarios_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "run", "--scenarios", "-1"])

    def test_bad_trace_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "run", "--trace", "x.bin:nacho"]
            )

    def test_trace_spec_with_format_parses(self):
        args = build_parser().parse_args(
            ["fuzz", "run", "--trace", "a.out:pin",
             "--trace", "b.champsim.bin"]
        )
        assert args.trace == [("a.out", "pin"), ("b.champsim.bin", "auto")]
