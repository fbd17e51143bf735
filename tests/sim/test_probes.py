"""Differential tests for the microarchitectural probe layer.

The load-bearing properties, per DESIGN.md decision 8:

* **Tier equivalence** — every ``fastpath_safe`` probe produces a
  bit-identical summary whether the replay ran through the scalar cache
  model or the set tier's lockstep kernel.
* **The reuse probe is its definition** — its histograms equal the
  stack distance by definition, split by the sharing class of a model
  LRU replay's residencies.
* **Never silently degrade** — one scalar-only probe forces the whole
  replay onto the scalar tier, and the report says which tier ran.
* **Observation only** — a probed replay returns exactly the hit/miss
  counts of the un-probed :func:`run_policy_on_stream` twin (same seed
  derivation), and an un-probed ``SharedLlc`` carries no instrumentation
  at all (the hook is an instance-attribute shadow, absent by default);
  a probed model replay installs it only for a per-access probe.
* **The sharing probe IS the characterization** — its summary reproduces
  ``context.characterize()``'s breakdown field-for-field.
"""

import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.llc import ResidencyObserver, SharedLlc
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.sim.engine import LlcOnlySimulator
from repro.sim.experiment import ExperimentContext
from repro.sim.multipass import run_policy_on_stream
from repro.sim.parallel import inspect_many
from repro.sim.probes import (
    PROBE_FORMAT_VERSION,
    PROBE_NAMES,
    Probe,
    ProbeBus,
    default_probe_names,
    inspect_workload,
    make_probe,
    resolve_probes,
    run_probed_replay,
)
from repro.policies.lru import LruPolicy
from tests.conftest import make_stream
from tests.strategies import REPLAY_PCS, geometries

FASTPATH_SAFE = ("sets", "evictions", "sharing", "reuse")


def mixed_stream(n=4000, cores=4, blocks=96, writes=0.25, seed=7):
    """A deterministic multi-core stream with real sharing and evictions."""
    rng = random.Random(seed)
    accesses = [
        (
            rng.randrange(cores),
            0x400 + 8 * rng.randrange(16),
            rng.randrange(blocks),
            rng.random() < writes,
        )
        for __ in range(n)
    ]
    return make_stream(accesses, name="mixed")


@pytest.fixture
def stream():
    return mixed_stream()


@pytest.fixture
def context(tiny_machine):
    return ExperimentContext(
        tiny_machine, target_accesses=3_000, seed=11,
        workloads=["swaptions", "water"],
    )


class CountingProbe(Probe):
    """Scalar-only access counter: exercises tier forcing and the bus."""

    name = "counting"
    fastpath_safe = False
    wants_access_events = True

    def __init__(self):
        self.accesses = 0
        self.hits = 0

    def on_access(self, llc, core, pc, block, is_write, hit, evicted):
        self.accesses += 1
        self.hits += hit

    def summary(self):
        return {"accesses": self.accesses, "hits": self.hits}


class TestTierEquivalence:
    @pytest.mark.parametrize("name", FASTPATH_SAFE)
    def test_probe_summary_bit_identical_across_tiers(
        self, stream, small_geometry, name
    ):
        fast = run_probed_replay(
            stream, small_geometry, "lru", [name], fastpath=True
        )
        scalar = run_probed_replay(
            stream, small_geometry, "lru", [name], fastpath=False
        )
        assert fast.tier == "set"
        assert scalar.tier == "scalar"
        assert fast.probes[name] == scalar.probes[name]
        assert (fast.result.hits, fast.result.misses) == (
            scalar.result.hits, scalar.result.misses
        )

    def test_all_safe_probes_together_across_geometries(self, stream):
        for geometry in (
            CacheGeometry(4 * 2 * 64, 2),
            CacheGeometry(2 * 4 * 64, 4),
            CacheGeometry(8 * 8 * 64, 8),
        ):
            fast = run_probed_replay(
                stream, geometry, "lru", list(FASTPATH_SAFE), fastpath=True
            )
            scalar = run_probed_replay(
                stream, geometry, "lru", list(FASTPATH_SAFE), fastpath=False
            )
            assert fast.probes == scalar.probes

    def test_unsafe_probe_forces_scalar_tier(self, stream, small_geometry):
        probe = CountingProbe()
        report = run_probed_replay(
            stream, small_geometry, "lru", [probe], fastpath=True
        )
        assert report.tier == "scalar"
        # ... and the bus actually delivered every access to it.
        assert probe.accesses == len(stream)
        assert probe.hits == report.result.hits
        assert report.probes["counting"]["accesses"] == len(stream)

    def test_safe_probes_take_fastpath_by_default(
        self, stream, small_geometry, monkeypatch
    ):
        from repro.sim.fastpath import FASTPATH_ENV

        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        report = run_probed_replay(
            stream, small_geometry, "lru", list(FASTPATH_SAFE)
        )
        assert report.tier == "set"


class TestReportedPlan:
    @pytest.mark.parametrize("policy, probes, plan", [
        ("lru", [], ("set", "numpy", "")),
        ("srrip", [], ("set", "numpy", "")),
        ("drrip", ["sets"], ("dueling", "numpy", "")),
        ("ship", ["sets"], ("scalar", "model", "observers")),
        ("ship", ["shct"], ("scalar", "model", "probe")),
        ("lru", ["sets"], ("scalar", "model", "fastpath-off")),
    ])
    def test_report_and_span_carry_the_plan(
        self, small_geometry, record_spans, policy, probes, plan
    ):
        stream = mixed_stream(n=3000)
        fastpath = plan[2] != "fastpath-off"
        reports = []
        spans = record_spans(lambda: reports.append(run_probed_replay(
            stream, small_geometry, policy, probes, fastpath=fastpath,
        )))
        report = reports[0]
        assert (report.tier, report.result.backend, report.reason) == plan
        assert report.result.reason == report.reason
        # One span per probed replay, carrying the same plan.
        assert [(s["stage"], s["tier"], s["backend"], s["reason"])
                for s in spans] == [("inspect_replay", *plan)]

    def test_probe_free_ship_replay_takes_the_compact_kernel(
        self, stream, small_geometry, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SIM_NO_NATIVE", raising=False)
        report = run_probed_replay(stream, small_geometry, "ship", [])
        assert report.result.backend == "compact"
        assert report.result == run_policy_on_stream(
            stream, small_geometry, "ship")

    def test_version_1_report_still_renders(self, stream, small_geometry):
        from repro.characterization.report import render_probe_report

        payload = run_probed_replay(
            stream, small_geometry, "lru", ["sets"]).as_dict()
        del payload["reason"], payload["result"]["reason"]
        payload["format_version"] = 1
        assert "reason -" in render_probe_report(payload)


class TestObservationOnly:
    @pytest.mark.parametrize("policy", ["lru", "srrip", "random", "dip"])
    def test_probed_replay_matches_unprobed_counts(
        self, stream, small_geometry, policy
    ):
        probes = ["sets", "evictions", "sharing", "reuse"]
        probed = run_probed_replay(
            stream, small_geometry, policy, probes, seed=13, fastpath=False
        )
        plain = run_policy_on_stream(
            stream, small_geometry, policy, seed=13, fastpath=False
        )
        assert (probed.result.hits, probed.result.misses) == (
            plain.hits, plain.misses
        )

    def test_unprobed_llc_carries_no_instrumentation(self, small_geometry):
        simulator = LlcOnlySimulator(small_geometry, LruPolicy())
        assert "access" not in vars(simulator.llc)
        simulator.llc.attach_probe_bus(ProbeBus([CountingProbe()]))
        assert "access" in vars(simulator.llc)

    @pytest.mark.parametrize("probes, attaches", [
        ([], 0),
        (["sets", "evictions", "sharing", "reuse"], 0),
        ([CountingProbe], 1),
    ], ids=["none", "residency", "access"])
    def test_model_replay_attaches_a_bus_only_for_access_probes(
        self, stream, small_geometry, monkeypatch, probes, attaches
    ):
        # Residency probes ride the observer callbacks and the reuse probe
        # reads the stream, so only a per-access probe may shadow the
        # LLC's access method.
        probes = [p if isinstance(p, str) else p() for p in probes]
        calls = []
        original = SharedLlc.attach_probe_bus

        def attach(llc, bus):
            calls.append(bus)
            original(llc, bus)

        monkeypatch.setattr(SharedLlc, "attach_probe_bus", attach)
        report = run_probed_replay(
            stream, small_geometry, "lru", probes, fastpath=False
        )
        assert (report.tier, report.result.backend) == ("scalar", "model")
        assert len(calls) == attaches

    def test_scalar_report_carries_policy_state(
        self, stream, small_geometry
    ):
        report = run_probed_replay(
            stream, small_geometry, "dip", ["sets"], fastpath=False
        )
        assert report.policy_state is not None
        assert report.policy_state["policy"] == "dip"

    def test_profile_attributes_replay_stages(self, stream, small_geometry):
        fast = run_probed_replay(
            stream, small_geometry, "lru", ["reuse"], fastpath=True
        )
        assert "set_kernels" in fast.profile
        assert "probe_reuse" in fast.profile
        assert fast.profile["total"] >= 0
        scalar = run_probed_replay(
            stream, small_geometry, "lru", ["reuse"], fastpath=False
        )
        assert "replay_loop" in scalar.profile
        assert "finalize" in scalar.profile


class ResidencyLog(ResidencyObserver):
    """Every residency of a replay: ``(block, fill ordinal, core mask)``."""

    def __init__(self):
        self.residencies = []

    def residency_ended(self, block, set_index, fill_ordinal, end_ordinal,
                        fill_pc, fill_core, core_mask, write_mask, hits,
                        other_hits, forced):
        self.residencies.append((block, fill_ordinal, core_mask))


def reuse_by_definition(stream, geometry):
    """The reuse probe's ``(shared, private)`` histograms, by definition.

    The distance of access ``i`` is the number of distinct other blocks of
    its set touched since the previous access to its block, capped at
    ``ways`` (cold accesses too); its class is that of the residency a
    model LRU replay holds its block in: the block's latest fill at or
    before ``i``, shared when two or more cores touched it.
    """
    log = ResidencyLog()
    LlcOnlySimulator(geometry, LruPolicy(), observers=(log,)).run(stream)
    blocks = list(stream.blocks)
    ways, mask = geometry.ways, geometry.num_sets - 1
    shared = [0] * (ways + 1)
    private = [0] * (ways + 1)
    for i, block in enumerate(blocks):
        prev = max((j for j in range(i) if blocks[j] == block), default=None)
        distance = ways if prev is None else min(ways, len({
            other for other in blocks[prev + 1:i]
            if other & mask == block & mask and other != block
        }))
        __, ___, core_mask = max(
            r for r in log.residencies if r[0] == block and r[1] <= i + 1
        )
        side = shared if bin(core_mask).count("1") >= 2 else private
        side[distance] += 1
    return shared, private


class TestReuseProbe:
    @settings(max_examples=40, deadline=None)
    @given(
        accesses=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2, 63, 64, 127]),
                st.sampled_from(REPLAY_PCS),
                st.integers(0, 40),
                st.booleans(),
            ),
            max_size=200,
        ),
        geometry=geometries(),
        fastpath=st.booleans(),
    )
    def test_summary_matches_definition(self, accesses, geometry, fastpath):
        # Core ids up to 127 fill the stream's int8 core column.
        stream = make_stream(accesses)
        summary = run_probed_replay(
            stream, geometry, "lru", ["reuse"], fastpath=fastpath,
        ).probes["reuse"]
        shared, private = reuse_by_definition(stream, geometry)
        assert summary["ways"] == geometry.ways
        assert summary["shared"]["histogram"] == shared
        assert summary["private"]["histogram"] == private


class TestPolicyInternalProbes:
    def test_psel_samples_dueling_counter(self, stream, small_geometry):
        probe = make_probe("psel", sample_every=256)
        report = run_probed_replay(
            stream, small_geometry, "dip", [probe], fastpath=False
        )
        summary = report.probes["psel"]
        assert summary["sample_every"] == 256
        assert len(summary["samples"]) == len(stream) // 256
        assert summary["final"]["psel"] >= 0
        for seen, psel in summary["samples"]:
            assert 0 <= psel <= probe._duel.psel_max

    def test_psel_rejects_non_dueling_policy(self, stream, small_geometry):
        with pytest.raises(ConfigError, match="set-dueling"):
            run_probed_replay(
                stream, small_geometry, "lru", ["psel"], fastpath=False
            )

    def test_shct_samples_ship_table(self, stream, small_geometry):
        probe = make_probe("shct", sample_every=512)
        report = run_probed_replay(
            stream, small_geometry, "ship", [probe], fastpath=False
        )
        summary = report.probes["shct"]
        assert summary["shct_size"] > 0
        assert sum(summary["final_histogram"].values()) == summary["shct_size"]
        assert len(summary["samples"]) == len(stream) // 512

    def test_shct_rejects_non_ship_policy(self, stream, small_geometry):
        with pytest.raises(ConfigError, match="SHiP"):
            run_probed_replay(
                stream, small_geometry, "srrip", ["shct"], fastpath=False
            )

    def test_rrpv_snapshots_victim_sets(self, stream, small_geometry):
        report = run_probed_replay(
            stream, small_geometry, "srrip", ["rrpv"], fastpath=False
        )
        summary = report.probes["rrpv"]
        assert summary["evictions_sampled"] > 0
        # Every eviction snapshots the full (just refilled) victim set.
        assert (
            sum(summary["histogram"].values())
            == summary["evictions_sampled"] * small_geometry.ways
        )
        assert all(
            0 <= int(v) <= summary["rrpv_max"] for v in summary["histogram"]
        )

    def test_rrpv_rejects_non_rrip_policy(self, stream, small_geometry):
        with pytest.raises(ConfigError, match="RRIP"):
            run_probed_replay(
                stream, small_geometry, "lru", ["rrpv"], fastpath=False
            )


class TestRegistry:
    def test_unknown_probe_rejected(self):
        with pytest.raises(ConfigError, match="unknown probe"):
            make_probe("voltage")

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            resolve_probes(["sets", "sharing", "sets"])

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ConfigError, match="sample_every"):
            make_probe("psel", sample_every=0)

    def test_hierarchy_probe_rejected_by_replay_runner(
        self, stream, small_geometry
    ):
        with pytest.raises(ConfigError, match="hierarchy"):
            run_probed_replay(stream, small_geometry, "lru", ["coherence"])

    def test_default_probe_names_track_policy_state(self):
        base = {"sets", "evictions", "sharing", "reuse", "coherence"}
        assert set(default_probe_names("lru")) == base
        assert set(default_probe_names("drrip")) == base | {"psel", "rrpv"}
        assert set(default_probe_names("ship")) == base | {"shct", "rrpv"}
        for policy in ("lru", "dip", "drrip", "srrip", "ship"):
            names = default_probe_names(policy)
            assert set(names) <= set(PROBE_NAMES)
            assert len(names) == len(set(names))


class TestInspectWorkload:
    def test_sharing_probe_reproduces_characterization(self, context):
        """Acceptance: the paper-style breakdown from probe data alone."""
        report = inspect_workload(context, "water", probes=["sharing"])
        char = context.characterize("water")
        summary = report.probes["sharing"]
        for field, value in dataclasses.asdict(char.breakdown).items():
            if field in ("degree_residencies", "degree_hits"):
                value = {str(k): v for k, v in sorted(value.items())}
            assert summary[field] == value, field
        assert report.result.hits == char.result.hits
        assert report.result.misses == char.result.misses

    def test_coherence_probe_matches_hierarchy_stats(self, context):
        report = inspect_workload(context, "water", probes=["coherence"])
        events = report.probes["coherence"]["events"]
        stats = report.hierarchy
        assert events.get("upgrade", 0) == stats["upgrades"]
        assert events.get("invalidation", 0) == stats["invalidations"]
        assert events.get("writeback", 0) == stats["writebacks"]
        assert events.get("inclusion_victim", 0) == stats["inclusion_victims"]
        per_core = report.probes["coherence"]["per_core"]
        for kind, cores in per_core.items():
            assert sum(cores) == events[kind]
        assert "hierarchy_pass" in report.profile

    def test_default_inspection_is_json_and_pickle_clean(self, context):
        report = inspect_workload(context, "swaptions")
        payload = report.as_dict()
        assert payload["format_version"] == PROBE_FORMAT_VERSION
        decoded = json.loads(json.dumps(payload))
        assert decoded["workload"] == "swaptions"
        assert set(decoded["probes"]) == set(default_probe_names("lru"))
        clone = pickle.loads(pickle.dumps(report))
        assert clone.probes == report.probes
        assert clone.as_dict() == payload


class TestParallelInspect:
    def test_parallel_matches_serial(self, context, tiny_machine):
        serial = inspect_many(context, ["swaptions", "water"], jobs=1)
        fresh = ExperimentContext(
            tiny_machine, target_accesses=3_000, seed=11,
            workloads=["swaptions", "water"],
        )
        parallel = inspect_many(fresh, ["swaptions", "water"], jobs=2)
        assert set(serial) == set(parallel)
        for name in serial:
            a, b = serial[name], parallel[name]
            assert a.tier == b.tier
            assert a.probes == b.probes
            assert (a.result.hits, a.result.misses) == (
                b.result.hits, b.result.misses
            )


class TestCliInspect:
    FAST = ["--accesses", "3000", "--workloads", "swaptions"]

    def test_inspect_renders_and_persists_report(self, capsys, tmp_path):
        from repro.cli import main
        from repro.sim import telemetry

        cache = str(tmp_path / "cache")
        assert main(["inspect", *self.FAST, "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "probe report: workload swaptions" in out
        assert "sharing breakdown" in out
        assert "hottest sets" in out
        root = telemetry.resolve_runs_root(cache_dir=cache)
        runs = telemetry.list_runs(root)
        assert len(runs) == 1
        payload_path = runs[0].path / "inspect_swaptions.json"
        payload = json.loads(payload_path.read_text())
        assert payload["format_version"] == PROBE_FORMAT_VERSION
        assert payload["probes"]["sharing"]["shared_hits"] >= 0

        # `runs show` re-renders the persisted report from disk.
        assert main(["runs", "show", runs[0].run_id,
                     "--cache-dir", cache]) == 0
        assert "probe report: workload swaptions" in capsys.readouterr().out

    def test_runs_show_warns_on_corrupt_probe_payload(
        self, capsys, tmp_path
    ):
        from repro.cli import main
        from repro.sim import telemetry

        cache = str(tmp_path / "cache")
        assert main(["inspect", *self.FAST, "--cache-dir", cache]) == 0
        capsys.readouterr()
        runs = telemetry.list_runs(
            telemetry.resolve_runs_root(cache_dir=cache)
        )
        (runs[0].path / "inspect_swaptions.json").write_text("{broken")
        assert main(["runs", "show", runs[0].run_id,
                     "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        assert "Traceback" not in captured.err
        assert "probe report" not in captured.out

    def test_inspect_rejects_incompatible_probe(self, capsys, tmp_path):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        # Graceful mode reports the failed cell and keeps going...
        assert main(["inspect", *self.FAST, "--policy", "lru",
                     "--probes", "psel", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "set-dueling" in captured.err
        assert "probe report" not in captured.out
        # ...while --fail-fast surfaces the ConfigError as a hard error.
        assert main(["inspect", *self.FAST, "--policy", "lru",
                     "--probes", "psel", "--fail-fast", "--retries", "0",
                     "--cache-dir", cache]) == 2
        assert "set-dueling" in capsys.readouterr().err

    def test_inspect_policy_probes_render(self, capsys, tmp_path):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        assert main(["inspect", *self.FAST, "--policy", "drrip",
                     "--probes", "psel", "rrpv",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "tier scalar" in out
        assert "PSEL" in out
        assert "rrpv" in out
