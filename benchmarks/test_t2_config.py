"""T2 — Simulated machine configuration table.

Paper analogue: the simulation-parameters table. Also pins the fast replay
tiers every other bench's runtime rests on: on a real recorded stream each
is bit-identical to the scalar model and stamps the tier and backend that
ran it, so a silent fallback to the model fails here. Their speed is
measured, with its spread, by the end-to-end benchmark in ``bench/``.
"""

from benchmarks.conftest import emit, once
from repro.common.config import PROFILE_NAMES, CacheGeometry, profile
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.gridpath import replay_lru_grid
from repro.sim.multipass import run_policy_on_stream
from repro.sim.setpath import replay_setpath


def test_t2_machine_configurations(benchmark, context):
    def build_rows():
        rows = []
        for name in PROFILE_NAMES:
            machine = profile(name)
            rows.append([
                name,
                machine.num_cores,
                machine.l1.describe(),
                machine.l2.describe(),
                machine.llc.describe(),
                f"1/{machine.scale}" if machine.scale != 1 else "full",
            ])
        return rows

    rows = once(benchmark, build_rows)
    emit(
        "t2_config",
        ["profile", "cores", "L1D/core", "L2/core", "shared LLC", "scale"],
        rows,
        title="[T2] Machine configurations (paper: 8-core CMP, 4MB/8MB LLC)",
    )
    assert len(rows) == 4


def test_t2_replay_tiers(benchmark, context):
    def run_all():
        stream = context.artifacts("dedup").stream
        llc = context.machine.llc
        # Plain LRU on the set tier's lockstep kernel, the engine of every
        # LRU cell and oracle base pass.
        replay = LlcOnlySimulator(llc, LruPolicy()).run(stream)
        fast = run_policy_on_stream(stream, llc, "lru", fastpath=True)
        assert (fast.hits, fast.misses) == (replay.hits, replay.misses)

        # The set tier on a representative non-LRU policy.
        srrip_scalar = LlcOnlySimulator(llc, make_policy("srrip")).run(stream)
        srrip_setpath = replay_setpath(stream, llc, make_policy("srrip"))
        assert (srrip_setpath.hits, srrip_setpath.misses) == (
            srrip_scalar.hits, srrip_scalar.misses
        )

        # The grid tier: a 4-point LRU associativity sweep in one
        # rank-mode replay, against four independent replays.
        grid_geoms = [
            CacheGeometry(llc.num_sets * w * llc.block_bytes, w,
                          llc.block_bytes)
            for w in (4, 8, 16, 32)
        ]
        profile = {}
        grid_cells = replay_lru_grid(stream, grid_geoms, profile=profile)
        percell = [run_policy_on_stream(stream, g, "lru", fastpath=True)
                   for g in grid_geoms]
        for cell, ref in zip(grid_cells, percell):
            assert (cell.hits, cell.misses) == (ref.hits, ref.misses)
        return fast, srrip_setpath, grid_cells, percell, profile

    fast, srrip, grid_cells, percell, profile = once(benchmark, run_all)
    assert (fast.tier, fast.backend) == ("set", "numpy")
    assert (srrip.tier, srrip.backend) == ("set", "numpy")
    assert {(cell.tier, cell.backend) for cell in percell} == {("set", "numpy")}
    assert {(cell.tier, cell.backend) for cell in grid_cells} == {
        ("grid", "numpy")}
    # One rank-mode replay served all four cells.
    assert profile["grid_groups"] == 1
