"""Tests for the tracked benchmark trajectory (``repro.sim.bench``).

Timing magnitudes are machine noise and never asserted; what is pinned
down is the *shape* of the trajectory: one schema-versioned
``BENCH_<rev>.json`` per revision, every canonical cell present, the
disabled-probe overhead computed from the right cells, and the
comparison against the previous revision's file.
"""

import json

import pytest

from repro.cli import main
from repro.common.errors import ConfigError
from repro.sim.bench import (
    BENCH_FORMAT_VERSION,
    GOLDEN_CELL,
    OVERHEAD_CELL,
    REPLAY_PROBES,
    current_rev,
    disabled_probe_overhead,
    previous_bench,
    run_bench,
)
from repro.sim.experiment import ExperimentContext

EXPECTED_CELLS = {
    "warm_replay_lru_fastpath",
    "warm_replay_lru_scalar",
    "warm_replay_srrip",
    "warm_replay_srrip_scalar",
    "warm_replay_drrip",
    "warm_replay_drrip_scalar",
    "warm_replay_ship",
    "warm_replay_ship_native",
    "warm_replay_ship_scalar",
    "warm_replay_oracle_native",
    "warm_replay_oracle_scalar",
    "warm_sweep_grid",
    "warm_sweep_grid_percell",
    "probed_disabled",
    "probed_full_fastpath",
    "probed_full_scalar",
}


@pytest.fixture
def context(tiny_machine):
    return ExperimentContext(
        tiny_machine, target_accesses=2_000, seed=5, workloads=["swaptions"]
    )


class TestRunBench:
    def test_writes_versioned_snapshot_with_every_cell(
        self, context, tmp_path
    ):
        payload, path = run_bench(
            context, workload="swaptions", repeats=1,
            out_dir=str(tmp_path), rev="aaa0001",
        )
        assert path == tmp_path / "BENCH_aaa0001.json"
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert payload["format_version"] == BENCH_FORMAT_VERSION
        assert payload["rev"] == "aaa0001"
        assert payload["workload"] == "swaptions"
        assert set(payload["cells"]) == EXPECTED_CELLS
        from repro.sim.bench import GATE_PAIR_MIN_REPEATS

        for name, cell in payload["cells"].items():
            expected = (
                GATE_PAIR_MIN_REPEATS
                if name in (GOLDEN_CELL, OVERHEAD_CELL) else 1
            )
            assert cell["repeats"] == expected
            assert cell["min_sec"] > 0
            assert cell["min_sec"] <= cell["mean_sec"] <= cell["max_sec"]
            assert cell["accesses"] > 0
        assert payload["golden_cell"] == GOLDEN_CELL
        assert payload["overhead_cell"] == OVERHEAD_CELL
        assert isinstance(payload["disabled_probe_overhead"], float)
        assert "vs_previous" not in payload  # nothing to compare against

    def test_second_revision_compares_against_previous(
        self, context, tmp_path
    ):
        run_bench(context, workload="swaptions", repeats=1,
                  out_dir=str(tmp_path), rev="aaa0001")
        payload, __ = run_bench(context, workload="swaptions", repeats=1,
                                out_dir=str(tmp_path), rev="bbb0002")
        assert payload["vs_previous"]["rev"] == "aaa0001"
        assert payload["vs_previous"]["golden_speedup"] > 0

    def test_rerun_of_same_revision_never_compares_to_itself(
        self, context, tmp_path
    ):
        run_bench(context, workload="swaptions", repeats=1,
                  out_dir=str(tmp_path), rev="aaa0001")
        payload, __ = run_bench(context, workload="swaptions", repeats=1,
                                out_dir=str(tmp_path), rev="aaa0001")
        assert "vs_previous" not in payload

    def test_rejects_nonpositive_repeats(self, context, tmp_path):
        with pytest.raises(ConfigError, match="repeats"):
            run_bench(context, repeats=0, out_dir=str(tmp_path))


class TestHelpers:
    def test_overhead_is_ratio_of_minima(self):
        cells = {
            GOLDEN_CELL: {"min_sec": 2.0},
            OVERHEAD_CELL: {"min_sec": 2.1},
        }
        assert disabled_probe_overhead(cells) == pytest.approx(0.05)

    def test_previous_bench_skips_corrupt_files(self, tmp_path):
        good = tmp_path / "BENCH_aaa0001.json"
        good.write_text(json.dumps({"rev": "aaa0001", "cells": {}}))
        (tmp_path / "BENCH_zzz9999.json").write_text("{not json")
        (tmp_path / "BENCH_yyy8888.json").write_text('"a string"')
        found = previous_bench(tmp_path, "ccc0003")
        assert found["rev"] == "aaa0001"

    def test_previous_bench_empty_dir(self, tmp_path):
        assert previous_bench(tmp_path, "aaa0001") is None

    def test_current_rev_outside_git(self, tmp_path):
        assert current_rev(str(tmp_path)) == "unknown"

    def test_probe_cells_use_only_fastpath_safe_probes(self):
        from repro.sim.probes import make_probe

        assert all(make_probe(name).fastpath_safe for name in REPLAY_PROBES)

    def test_setpath_speedups_are_ratios_of_minima(self):
        from repro.sim.bench import SETPATH_GATE_PAIRS, setpath_speedups

        cells = {
            "warm_replay_srrip": {"min_sec": 1.0},
            "warm_replay_srrip_scalar": {"min_sec": 4.0},
            "warm_replay_drrip": {"min_sec": 2.0},
            "warm_replay_drrip_scalar": {"min_sec": 3.0},
        }
        speedups = setpath_speedups(cells)
        assert set(speedups) == set(SETPATH_GATE_PAIRS)
        assert speedups["warm_replay_srrip"] == pytest.approx(4.0)
        assert speedups["warm_replay_drrip"] == pytest.approx(1.5)

    def test_setpath_pairs_are_cells(self):
        from repro.sim.bench import SETPATH_GATE_PAIRS

        for fast, twin in SETPATH_GATE_PAIRS.items():
            assert fast in EXPECTED_CELLS
            assert twin in EXPECTED_CELLS

    def test_gridpath_speedups_are_ratios_of_minima(self):
        from repro.sim.bench import GRIDPATH_GATE_PAIRS, gridpath_speedups

        cells = {
            "warm_sweep_grid": {"min_sec": 1.0},
            "warm_sweep_grid_percell": {"min_sec": 3.0},
        }
        speedups = gridpath_speedups(cells)
        assert set(speedups) == set(GRIDPATH_GATE_PAIRS)
        assert speedups["warm_sweep_grid"] == pytest.approx(3.0)

    def test_gridpath_pairs_are_cells(self):
        from repro.sim.bench import GRIDPATH_GATE_PAIRS

        for grid, twin in GRIDPATH_GATE_PAIRS.items():
            assert grid in EXPECTED_CELLS
            assert twin in EXPECTED_CELLS

    def test_nativepath_speedups_are_ratios_of_minima(self):
        from repro.sim.bench import NATIVEPATH_GATE_PAIRS, nativepath_speedups

        cells = {
            "warm_replay_ship_native": {"min_sec": 1.0},
            "warm_replay_ship_scalar": {"min_sec": 2.5},
            "warm_replay_oracle_native": {"min_sec": 2.0},
            "warm_replay_oracle_scalar": {"min_sec": 6.0},
        }
        speedups = nativepath_speedups(cells)
        assert set(speedups) == set(NATIVEPATH_GATE_PAIRS)
        assert speedups["warm_replay_ship_native"] == pytest.approx(2.5)
        assert speedups["warm_replay_oracle_native"] == pytest.approx(3.0)

    def test_nativepath_pairs_are_cells(self):
        from repro.sim.bench import NATIVEPATH_GATE_PAIRS

        for fast, twin in NATIVEPATH_GATE_PAIRS.items():
            assert fast in EXPECTED_CELLS
            assert twin in EXPECTED_CELLS


class TestCliBench:
    ARGS = ["bench", "--accesses", "2000", "--workload", "swaptions",
            "--repeats", "1"]

    def test_bench_writes_snapshot_and_reports_overhead(
        self, capsys, tmp_path
    ):
        out_dir = tmp_path / "results"
        assert main([*self.ARGS, "--out-dir", str(out_dir),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "disabled-probe overhead" in out
        assert GOLDEN_CELL in out
        snapshots = list(out_dir.glob("BENCH_*.json"))
        assert len(snapshots) == 1
        payload = json.loads(snapshots[0].read_text())
        assert set(payload["cells"]) == EXPECTED_CELLS

    def test_quick_caps_the_budget(self, capsys, tmp_path, monkeypatch):
        captured = {}

        def fake_run_bench(context, workload, repeats, out_dir):
            captured["accesses"] = context.target_accesses
            captured["repeats"] = repeats
            return (
                {"rev": "test", "cells": {}, "target_accesses": 1,
                 "disabled_probe_overhead": 0.0},
                tmp_path / "BENCH_test.json",
            )

        monkeypatch.setattr("repro.sim.bench.run_bench", fake_run_bench)
        assert main(["bench", "--quick", "--accesses", "999999",
                     "--repeats", "5",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert captured["accesses"] <= 60_000
        assert captured["repeats"] <= 2

    def test_overhead_gate_fails_the_command(
        self, capsys, tmp_path, monkeypatch
    ):
        def fake_run_bench(context, workload, repeats, out_dir):
            return (
                {"rev": "test", "cells": {}, "target_accesses": 1,
                 "disabled_probe_overhead": 0.5},
                tmp_path / "BENCH_test.json",
            )

        monkeypatch.setattr("repro.sim.bench.run_bench", fake_run_bench)
        assert main(["bench", "--max-overhead", "0.02",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert "exceeds" in err

    def test_setpath_speedup_gate_fails_the_command(
        self, capsys, tmp_path, monkeypatch
    ):
        def fake_run_bench(context, workload, repeats, out_dir):
            return (
                {"rev": "test", "cells": {}, "target_accesses": 1,
                 "disabled_probe_overhead": 0.0,
                 "setpath_speedups": {"warm_replay_srrip": 1.1,
                                      "warm_replay_drrip": 3.0}},
                tmp_path / "BENCH_test.json",
            )

        monkeypatch.setattr("repro.sim.bench.run_bench", fake_run_bench)
        assert main(["bench", "--min-setpath-speedup", "2.0",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert "warm_replay_srrip" in err and "scalar twin" in err
        # ... and passes when every pair clears the bound.
        def fake_ok(context, workload, repeats, out_dir):
            return (
                {"rev": "test", "cells": {}, "target_accesses": 1,
                 "disabled_probe_overhead": 0.0,
                 "setpath_speedups": {"warm_replay_srrip": 2.5,
                                      "warm_replay_drrip": 3.0}},
                tmp_path / "BENCH_test.json",
            )

        monkeypatch.setattr("repro.sim.bench.run_bench", fake_ok)
        assert main(["bench", "--min-setpath-speedup", "2.0",
                     "--cache-dir", str(tmp_path / "cache")]) == 0

    def test_gridpath_speedup_gate_fails_the_command(
        self, capsys, tmp_path, monkeypatch
    ):
        def fake_run_bench(context, workload, repeats, out_dir):
            return (
                {"rev": "test", "cells": {}, "target_accesses": 1,
                 "disabled_probe_overhead": 0.0,
                 "gridpath_speedups": {"warm_sweep_grid": 1.3}},
                tmp_path / "BENCH_test.json",
            )

        monkeypatch.setattr("repro.sim.bench.run_bench", fake_run_bench)
        assert main(["bench", "--min-gridpath-speedup", "2.0",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert "warm_sweep_grid" in err and "per-cell twin" in err
        # ... and passes when the grid clears the bound.
        def fake_ok(context, workload, repeats, out_dir):
            return (
                {"rev": "test", "cells": {}, "target_accesses": 1,
                 "disabled_probe_overhead": 0.0,
                 "gridpath_speedups": {"warm_sweep_grid": 2.4}},
                tmp_path / "BENCH_test.json",
            )

        monkeypatch.setattr("repro.sim.bench.run_bench", fake_ok)
        assert main(["bench", "--min-gridpath-speedup", "2.0",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
