"""Differential tests for the grid replay layer.

The grid layer's whole contract is *bit-identity with the object model*:
every cell of a geometry or parameter grid must carry exactly the
counters the scalar model gives that cell, with the engine-assigned
``grid`` tier recorded where a rank-mode LRU replay served it and, on every
other cell, the tier, backend and reason of the cell's own replay plan.
The references run with the fast path off: a non-LRU cell *is* a
:func:`run_policy_on_stream` replay, so a fast-path reference would
compare that code with itself. This file pins that matrix:

* :func:`lru_grid_hits` against per-associativity LRU replays
  (Mattson inclusion, including degenerate grids);
* geometry grids for every planned tier — the LRU rank-mode replay,
  set (LIP/BIP/NRU/SRRIP/BRRIP/random), dueling (DIP/DRRIP), scalar
  (SHiP) — and the disabled-fastpath gate;
* parameter grids — the SRRIP ``rrpv_bits`` grid, stochastic epsilon
  variants, and a mixed grid over every tier;
* oracle grids/variants against independent ``run_oracle_study`` calls
  (the memoized annotation sharing must not change a single number);
* a hypothesis-driven adversarial stream case;
* the committed ``f7_capacity_sweep`` golden, which the F7 bench now
  regenerates *through* the grid path.
"""

import csv
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.base import (
    REPLAY_DUELING,
    REPLAY_GRID,
    REPLAY_SCALAR,
    REPLAY_SET,
)
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.policies.rrip import BrripPolicy, SrripPolicy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.gridpath import (
    lru_grid_hits,
    replay_geometry_grid,
    replay_param_grid,
)
from repro.sim.multipass import run_policy_on_stream
from repro.sim.nativepath import native_enabled
from repro.sim.plan import plan_replay
from repro.oracle.runner import run_oracle_study, run_oracle_study_grid, run_oracle_variants
from tests.conftest import make_stream
from tests.strategies import replay_stream_lists

SEED = 7

GRID_POLICIES = (
    "lru", "lip", "bip", "dip", "srrip", "brrip", "drrip", "nru", "random",
)

# Shared num_sets groups *and* a distinct one, so LRU grids exercise both
# a walk shared across ways and one walk per num_sets.
GEOMETRY_GRID = [
    CacheGeometry(8 * 2 * 64, 2),    # 8 sets x 2 ways
    CacheGeometry(8 * 4 * 64, 4),    # 8 sets x 4 ways  (shares the group)
    CacheGeometry(8 * 8 * 64, 8),    # 8 sets x 8 ways  (shares the group)
    CacheGeometry(4 * 4 * 64, 4),    # 4 sets x 4 ways  (second group)
]


def mixed_stream(n=4000, spread=160):
    """A deterministic multi-core read/write stream with reuse."""
    accesses = []
    for i in range(n):
        block = (i * 7 + (i // 13) * 3) % spread
        accesses.append((i % 4, 0x100 + (i % 3) * 0x10, block, i % 5 == 0))
    return make_stream(accesses)


accesses_strategy = replay_stream_lists()


def stamps(result):
    """A result's (tier, backend, reason) provenance."""
    return result.tier, result.backend, result.reason


def own_plan(policy, stream):
    """The (tier, backend, reason) the planner gives one cell's instance
    with the fast path on and the native gate as the environment sets it."""
    plan = plan_replay(policy, (), stream, True, native_enabled())
    return plan.tier, plan.backend, plan.reason


def model(stream, geometry, policy, **kwargs):
    """The cell's object-model reference."""
    return run_policy_on_stream(stream, geometry, policy, fastpath=False,
                                **kwargs)


class TestLruGridHits:
    def test_matches_per_cell_fastpath(self):
        stream = mixed_stream()
        ways_grid = [1, 2, 3, 4, 8, 16]
        hits = lru_grid_hits(stream.blocks, 8, ways_grid)
        for ways in ways_grid:
            geometry = CacheGeometry(8 * ways * 64, ways)
            ref = run_policy_on_stream(stream, geometry, "lru", fastpath=True)
            assert hits[ways] == ref.hits

    def test_empty_grid_and_empty_stream(self):
        assert lru_grid_hits([1, 2, 3], 4, []) == {}
        assert lru_grid_hits([], 4, [1, 2]) == {1: 0, 2: 0}

    def test_single_cell_grid(self):
        stream = mixed_stream(600, 50)
        hits = lru_grid_hits(stream.blocks, 4, [2])
        ref = run_policy_on_stream(
            stream, CacheGeometry(4 * 2 * 64, 2), "lru", fastpath=True
        )
        assert hits == {2: ref.hits}


class TestGeometryGrid:
    @pytest.mark.parametrize("policy", GRID_POLICIES)
    def test_bit_identity_every_tier(self, policy):
        stream = mixed_stream()
        cells = replay_geometry_grid(
            stream, GEOMETRY_GRID, policy=policy, seed=SEED, fastpath=True,
        )
        assert len(cells) == len(GEOMETRY_GRID)
        for geometry, cell in zip(GEOMETRY_GRID, cells):
            assert cell == model(stream, geometry, policy, seed=SEED)
            if policy == "lru":
                assert stamps(cell) == (REPLAY_GRID, "numpy", "")
            else:
                assert stamps(cell) == own_plan(
                    make_policy(policy, seed=cell_seed(policy)), stream)

    def test_scalar_policy_replays_per_cell(self):
        # SHiP's globally coupled SHCT makes it scalar-tier by design; the
        # grid layer must replay it per cell and record the cell's own
        # plan, never stamp it as grid.
        stream = mixed_stream(1500, 80)
        profile = {}
        cells = replay_geometry_grid(
            stream, GEOMETRY_GRID[:2], policy="ship", seed=SEED,
            fastpath=True, profile=profile,
        )
        for geometry, cell in zip(GEOMETRY_GRID[:2], cells):
            assert cell == model(stream, geometry, "ship", seed=SEED)
            assert stamps(cell) == own_plan(
                make_policy("ship", seed=cell_seed("ship")), stream)
            assert cell.tier == REPLAY_SCALAR
        assert profile == {"grid_cells": 2}

    @pytest.mark.parametrize("policy", ("lru", "srrip"))
    def test_disabled_fastpath_matches_scalar(self, policy):
        stream = mixed_stream(1200, 60)
        cells = replay_geometry_grid(
            stream, GEOMETRY_GRID[:2], policy=policy, seed=SEED,
            fastpath=False,
        )
        for geometry, cell in zip(GEOMETRY_GRID[:2], cells):
            scalar = LlcOnlySimulator(
                geometry,
                make_policy(policy, seed=cell_seed(policy)),
            ).run(stream)
            assert cell == scalar
            assert stamps(cell) == (REPLAY_SCALAR, "model", "fastpath-off")

    def test_factory_spec_matches_per_cell_instances(self):
        stream = mixed_stream(1500, 90)
        cells = replay_geometry_grid(
            stream, GEOMETRY_GRID, policy=lambda: SrripPolicy(rrpv_bits=3),
            seed=SEED, fastpath=True,
        )
        for geometry, cell in zip(GEOMETRY_GRID, cells):
            assert cell == model(stream, geometry, SrripPolicy(rrpv_bits=3))
            assert stamps(cell) == own_plan(SrripPolicy(rrpv_bits=3), stream)

    def test_only_exact_lru_takes_the_walk(self):
        class TweakedLru(LruPolicy):
            name = "tweaked-lru"

        stream = mixed_stream(1200, 60)
        walked = replay_geometry_grid(
            stream, GEOMETRY_GRID, LruPolicy, fastpath=True)
        assert {stamps(cell) for cell in walked} == {
            (REPLAY_GRID, "numpy", "")}
        # A subclass may change what rank mode assumes: each of its cells
        # is its own planned replay, on the model.
        cells = replay_geometry_grid(
            stream, GEOMETRY_GRID, TweakedLru, fastpath=True)
        for geometry, cell in zip(GEOMETRY_GRID, cells):
            assert cell == model(stream, geometry, TweakedLru())
            assert stamps(cell) == own_plan(TweakedLru(), stream) == (
                REPLAY_SCALAR, "model", "no-kernel")

    def test_prebuilt_instance_rejected(self):
        stream = mixed_stream(200, 20)
        with pytest.raises(SimulationError, match="fresh instance"):
            replay_geometry_grid(
                stream, GEOMETRY_GRID[:1], policy=SrripPolicy()
            )

    def test_bad_factory_rejected(self):
        stream = mixed_stream(200, 20)
        bound = SrripPolicy()
        bound.bind(GEOMETRY_GRID[0])
        with pytest.raises(SimulationError, match="unbound"):
            replay_geometry_grid(
                stream, GEOMETRY_GRID[:1], policy=lambda: bound
            )


def cell_seed(name, seed=SEED):
    """The per-cell derived seed replay uses for a registered name."""
    from repro.common.rng import derive_seed

    return derive_seed(seed, "replay", name)


class TestParamGrid:
    def test_srrip_rrpv_grid_bit_identity(self):
        stream = mixed_stream()
        geometry = CacheGeometry(8 * 8 * 64, 8)
        bits = (1, 2, 3, 4)
        cells = replay_param_grid(
            stream, geometry, [SrripPolicy(rrpv_bits=b) for b in bits],
            fastpath=True,
        )
        for b, cell in zip(bits, cells):
            assert cell == model(stream, geometry, SrripPolicy(rrpv_bits=b))
            assert stamps(cell) == own_plan(SrripPolicy(rrpv_bits=b), stream)
            assert cell.tier == REPLAY_SET

    def test_stochastic_epsilon_grid_bit_identity(self):
        # BRRIP variants draw from per-set RNG streams derived from their
        # own seeds; each cell must equal the model's replay bit for bit.
        stream = mixed_stream(2500, 120)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        variants = [
            lambda: BrripPolicy(seed=3, throttle=8),
            lambda: BrripPolicy(seed=3, throttle=32),
            lambda: BrripPolicy(seed=11, throttle=32),
        ]
        cells = replay_param_grid(
            stream, geometry, [variant() for variant in variants],
            fastpath=True,
        )
        for variant, cell in zip(variants, cells):
            assert cell == model(stream, geometry, variant())
            assert stamps(cell) == own_plan(variant(), stream)

    def test_mixed_grid_tiers(self):
        # A grid over every tier: SRRIPs and LRU on the set tier, a
        # dueling DRRIP and a scalar SHiP; each cell carries its own plan.
        stream = mixed_stream(2500, 120)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        variants = [
            lambda: SrripPolicy(rrpv_bits=1),
            lambda: SrripPolicy(rrpv_bits=2),
            lambda: make_policy("drrip", seed=cell_seed("drrip")),
            lambda: make_policy("lru", seed=cell_seed("lru")),
            lambda: make_policy("ship", seed=cell_seed("ship")),
        ]
        cells = replay_param_grid(
            stream, geometry, [variant() for variant in variants],
            fastpath=True,
        )
        for variant, cell in zip(variants, cells):
            assert cell == model(stream, geometry, variant())
            assert stamps(cell) == own_plan(variant(), stream)
        assert [cell.tier for cell in cells] == [
            REPLAY_SET, REPLAY_SET, REPLAY_DUELING, REPLAY_SET,
            REPLAY_SCALAR,
        ]

    def test_disabled_fastpath_all_scalar(self):
        stream = mixed_stream(800, 40)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        cells = replay_param_grid(
            stream, geometry,
            [SrripPolicy(rrpv_bits=1), SrripPolicy(rrpv_bits=2)],
            fastpath=False,
        )
        for b, cell in zip((1, 2), cells):
            scalar = LlcOnlySimulator(
                geometry, SrripPolicy(rrpv_bits=b)
            ).run(stream)
            assert cell == scalar

    def test_bound_instance_rejected(self):
        stream = mixed_stream(200, 20)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        bound = SrripPolicy()
        bound.bind(geometry)
        with pytest.raises(SimulationError, match="already\\s+bound"):
            replay_param_grid(stream, geometry, [bound])

    def test_non_policy_rejected(self):
        stream = mixed_stream(200, 20)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        with pytest.raises(SimulationError, match="instances"):
            replay_param_grid(stream, geometry, ["srrip"])


class TestCellsAndSpans:
    @pytest.mark.parametrize("name", ("lru", "srrip", "drrip", "ship"))
    @pytest.mark.parametrize("fastpath", (None, False))
    def test_factory_called_at_most_once_per_cell(self, name, fastpath):
        calls = []

        def factory():
            calls.append(name)
            return make_policy(name, seed=cell_seed(name))

        stream = mixed_stream(600, 60)
        cells = replay_geometry_grid(
            stream, GEOMETRY_GRID[:3], factory, fastpath=fastpath,
        )
        assert len(calls) <= len(cells) == 3

    def test_every_param_cell_emits_one_replay_span(self, record_spans):
        stream = mixed_stream(1500, 90)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        cells = []
        spans = record_spans(lambda: cells.extend(replay_param_grid(
            stream, geometry,
            [SrripPolicy(), SrripPolicy(rrpv_bits=3), make_policy("ship"),
             make_policy("lru"), make_policy("dip", seed=1)],
            fastpath=True,
        )))
        # One replay span per cell, in cell order, and no replay_grid span.
        assert len(cells) == 5
        assert [(s["stage"], s["policy"], s["tier"], s["backend"],
                 s["reason"]) for s in spans] == [
            ("replay", cell.policy, *stamps(cell)) for cell in cells]

    def test_lru_geometry_grid_emits_one_grid_span(self, record_spans):
        stream = mixed_stream(1500, 90)
        spans = record_spans(lambda: replay_geometry_grid(
            stream, GEOMETRY_GRID, fastpath=True))
        [grid] = spans
        assert (grid["stage"], grid["tier"], grid["backend"]) == (
            "replay_grid", REPLAY_GRID, "numpy")
        assert (grid["cells"], grid["groups"]) == (4, 2)


class TestOracleGrid:
    def test_geometry_grid_matches_independent_studies(self):
        stream = mixed_stream(3000, 140)
        geometries = [
            CacheGeometry(8 * 2 * 64, 2),
            CacheGeometry(8 * 4 * 64, 4),
            CacheGeometry(16 * 4 * 64, 4),
        ]
        grid = run_oracle_study_grid(stream, geometries, base="lru")
        for geometry, study in zip(geometries, grid):
            # A fresh stream defeats the per-stream memo, so this is a
            # genuinely independent recomputation.
            fresh = mixed_stream(3000, 140)
            ref = run_oracle_study(fresh, geometry, base="lru")
            assert study.base == ref.base
            assert study.oracle == ref.oracle
            assert study.protected_fills == ref.protected_fills
            assert study.exemptions == ref.exemptions
            assert study.horizon_factor == ref.horizon_factor

    def test_variants_share_base_pass_exactly(self):
        stream = mixed_stream(3000, 140)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        variants = [
            ("both", "budget"),
            ("victim-exempt", "budget"),
            ("both", "never"),
        ]
        studies = run_oracle_variants(stream, geometry, variants)
        for (mode, release), study in zip(variants, studies):
            fresh = mixed_stream(3000, 140)
            ref = run_oracle_study(fresh, geometry, mode=mode, release=release)
            assert study.base == ref.base
            assert study.oracle == ref.oracle
            assert study.protected_fills == ref.protected_fills
            assert study.exemptions == ref.exemptions


class TestHypothesisStreams:
    @settings(max_examples=25, deadline=None)
    @given(accesses=accesses_strategy)
    def test_adversarial_stream_grid_identity(self, accesses):
        stream = make_stream(accesses)
        geometries = [
            CacheGeometry(4 * 1 * 64, 1),
            CacheGeometry(4 * 2 * 64, 2),
            CacheGeometry(2 * 2 * 64, 2),
        ]
        lru_cells = replay_geometry_grid(
            stream, geometries, policy="lru", seed=SEED, fastpath=True
        )
        srrip_cells = replay_geometry_grid(
            stream, geometries, policy="srrip", seed=SEED, fastpath=True
        )
        for geometry, lru_cell, srrip_cell in zip(
            geometries, lru_cells, srrip_cells
        ):
            assert lru_cell == model(stream, geometry, "lru", seed=SEED)
            assert srrip_cell == model(stream, geometry, "srrip", seed=SEED)


class TestF7Golden:
    CSV = Path(__file__).parent.parent.parent / "benchmarks" / "results" / \
        "f7_capacity_sweep.csv"

    def test_committed_golden_invariants_hold(self):
        # The F7 bench regenerates this file *through* the grid path; the
        # committed numbers predate the grid layer, so the file staying
        # byte-stable across bench runs is the golden re-check. Here we
        # pin the invariants those numbers must satisfy so an accidental
        # regeneration with different physics cannot slip through.
        with self.CSV.open() as handle:
            rows = list(csv.DictReader(handle))
        assert [row["llc_size"] for row in rows] == [
            "2MB(full)", "4MB(full)", "8MB(full)", "16MB(full)"
        ]
        miss_ratios = [float(row["avg_lru_mr"]) for row in rows]
        assert miss_ratios == sorted(miss_ratios, reverse=True)
        reductions = {
            row["llc_size"]: float(row["avg_oracle_reduction"]) for row in rows
        }
        assert reductions["8MB(full)"] > reductions["4MB(full)"] > 0
