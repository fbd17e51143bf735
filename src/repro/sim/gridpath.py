"""Single-pass grid replay: whole configuration grids in one stream walk.

The paper's headline artifacts — the F7 capacity sweep, the A1/A2
ablations, the t2 configuration table — are *grids* of (policy, geometry,
parameter) cells over one recorded stream. Replaying once per cell wastes
the structure the exact fast paths already expose:

* **Associativity grids** (fixed ``num_sets``): LRU is a stack algorithm,
  so one capped stack walk at the grid's maximum ways classifies every
  access for **every** smaller associativity simultaneously —
  ``hit iff stack distance < ways`` (Mattson inclusion). A whole ways
  sweep is one walk plus a histogram threshold per cell.
* **Capacity grids** (varying ``num_sets``): sets are renamed, so cells do
  not share a walk — but they share everything geometry-independent. The
  grid layer re-partitions once per *distinct* ``num_sets`` and the oracle
  layer (:func:`repro.oracle.runner.run_oracle_study_grid`) shares the
  stream's next-use/annotation work across all cells.
* **Parameter grids** (fixed geometry, e.g. SRRIP ``rrpv_bits``): the
  set-partitioned engine's synchronous SRRIP kernel generalizes to a
  stacked variant axis (:func:`repro.sim.setpath._count_rrip_sync_stacked`)
  — all variants step through one numpy recurrence. Stochastic variants
  (BIP/BRRIP epsilons) and dueling variants (DIP/DRRIP) replay per-variant
  over the *shared* partition: each variant instantiates its own per-set
  RNG streams and PSEL series, so sharing the partition is exact.

Results produced by a shared pass carry the engine-assigned ``grid`` tier
(:data:`repro.policies.base.REPLAY_GRID`); cells that had to fall back to
an independent replay keep that replay's own tier — preserving the PR 5
contract that scalar-tier policies (SHiP, oracle wrappers, bound
instances) are never silently mis-replayed. Every grid cell is
bit-identical to its per-cell replay (``tests/sim/test_gridpath.py`` pins
the full matrix); DESIGN.md decision 10 has the exactness argument.
"""

from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import derive_seed
from repro.policies.base import (
    REPLAY_DUELING,
    REPLAY_GRID,
    REPLAY_SET,
    REPLAY_STACK,
    ReplacementPolicy,
)
from repro.policies.registry import make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim import telemetry
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import (
    _histogram_walk,
    fastpath_enabled,
    replay_lru_fastpath,
)
from repro.sim.nativepath import try_native_replay
from repro.sim.results import LlcSimResult
from repro.sim.setpath import (
    _count_rrip_sync_stacked,
    _run_partitioned,
    partition_stream,
    setpath_tier_of,
    try_fast_replay,
)

PolicySpec = Union[str, Callable[[], ReplacementPolicy]]
"""A grid's policy axis: a registered name or a zero-arg factory.

Geometry grids need one *fresh unbound* instance per cell (policies bind
once), so a pre-built instance cannot span a grid — callers pass a name
(standard ``derive_seed(seed, "replay", name)`` seeding, identical to what
per-cell replay would use) or a factory producing configured instances.
"""


def lru_grid_hits(
    blocks: Sequence[int],
    num_sets: int,
    ways_grid: Sequence[int],
) -> Dict[int, int]:
    """Exact LRU hit counts for every associativity in ``ways_grid`` at once.

    One stack walk capped at ``max(ways_grid)`` yields every access's
    per-set stack distance; by Mattson inclusion ``hit iff distance < w``
    for each ``w``, so the whole grid reduces to a distance histogram and
    one cumulative-sum threshold per cell. Returns ``{ways: hits}``.

    Pure Python by design: the walk accumulates the histogram in-loop
    (:func:`repro.sim.fastpath._histogram_walk`) and the cumulative sum is
    over ``cap + 1`` integers, so there is nothing left to vectorize.
    """
    if not ways_grid:
        return {}
    cap = max(ways_grid)
    hist = _histogram_walk(
        blocks.tolist() if isinstance(blocks, array) else list(blocks),
        num_sets,
        cap,
    )
    cum = [0] * (cap + 1)
    running = 0
    for d, count in enumerate(hist):
        running += count
        cum[d] = running
    return {w: cum[w - 1] for w in ways_grid}


def _group_by_num_sets(geometries) -> Dict[int, List[int]]:
    """Grid cell indices grouped by ``num_sets`` (partition-sharing unit)."""
    groups: Dict[int, List[int]] = {}
    for idx, geometry in enumerate(geometries):
        groups.setdefault(geometry.num_sets, []).append(idx)
    return groups


def replay_lru_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    profile=None,
) -> List[LlcSimResult]:
    """Replay ``stream`` under exact LRU for every geometry in one pass each.

    Cells are grouped by ``num_sets``; each group costs one capped stack
    walk (:func:`lru_grid_hits`) regardless of how many associativities it
    spans. Results are positionally aligned with ``geometries`` and
    bit-identical to per-cell :func:`repro.sim.fastpath.replay_lru_fastpath`
    replays, with the ``grid`` tier recorded.
    """
    n = len(stream.blocks)
    results: List[Optional[LlcSimResult]] = [None] * len(geometries)
    groups = _group_by_num_sets(geometries)
    walk_sec = 0.0
    for num_sets, indices in groups.items():
        start = perf_counter()
        hits_by_ways = lru_grid_hits(
            stream.blocks,
            num_sets,
            sorted({geometries[idx].ways for idx in indices}),
        )
        elapsed = perf_counter() - start
        walk_sec += elapsed
        share = elapsed / len(indices)
        for idx in indices:
            hits = hits_by_ways[geometries[idx].ways]
            results[idx] = LlcSimResult(
                policy="lru",
                stream_name=stream.name,
                accesses=n,
                hits=hits,
                misses=n - hits,
                elapsed_sec=share,
                tier=REPLAY_GRID,
                backend="python",
            )
    if profile is not None:
        profile["grid_groups"] = len(groups)
        profile["grid_cells"] = len(geometries)
        profile["distance_walk"] = walk_sec
    return results


def _fresh_instance(policy: PolicySpec, seed: int) -> ReplacementPolicy:
    """One fresh unbound instance of the grid's policy axis."""
    if isinstance(policy, str):
        return make_policy(policy, seed=derive_seed(seed, "replay", policy))
    if isinstance(policy, ReplacementPolicy):
        raise SimulationError(
            f"grid replay needs a fresh instance per cell; pass the name or "
            f"a factory instead of the {policy.name!r} instance"
        )
    if callable(policy):
        instance = policy()
        if not isinstance(instance, ReplacementPolicy) or instance.geometry is not None:
            raise SimulationError(
                "grid policy factory must return a fresh unbound "
                "ReplacementPolicy instance"
            )
        return instance
    raise SimulationError(f"not a grid policy spec: {policy!r}")


def _scalar_cell(stream, geometry, instance, observers=()) -> LlcSimResult:
    """Per-cell scalar-model fallback (the PR 5 contract, tier recorded)."""
    return LlcOnlySimulator(geometry, instance, observers=observers).run(stream)


def replay_geometry_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    policy: PolicySpec = "lru",
    seed: int = 0,
    fastpath: Optional[bool] = None,
    profile=None,
) -> List[LlcSimResult]:
    """Replay one policy across a whole geometry grid, sharing every pass.

    Dispatch by the policy's effective replay tier:

    * ``stack`` (plain LRU) — one capped stack walk per distinct
      ``num_sets`` classifies every associativity cell
      (:func:`replay_lru_grid`);
    * ``set``/``dueling`` — one stream partition per distinct ``num_sets``,
      shared by every cell of that group (the partition depends only on
      ``num_sets``); each cell steps a fresh instance's kernels over it;
    * ``scalar`` — or fast paths disabled — falls back to independent
      per-cell replays with that cell's own tier recorded.

    Results align positionally with ``geometries`` and are bit-identical
    to per-cell replays of the same spec.
    """
    start = perf_counter()
    n = len(stream.blocks)
    tier = setpath_tier_of(
        policy if isinstance(policy, str) else _fresh_instance(policy, seed)
    )
    if not fastpath_enabled(fastpath) or tier not in (
        REPLAY_STACK, REPLAY_SET, REPLAY_DUELING,
    ):
        results = []
        for geometry in geometries:
            cell = try_fast_replay(
                stream, geometry, policy if isinstance(policy, str)
                else _fresh_instance(policy, seed),
                seed=seed, fastpath=fastpath,
            )
            if cell is None:
                cell = _scalar_cell(
                    stream, geometry, _fresh_instance(policy, seed)
                )
            results.append(cell)
        if profile is not None:
            profile["grid_cells"] = len(geometries)
            profile["grid_fallback_cells"] = len(geometries)
        return results
    if tier == REPLAY_STACK:
        results = replay_lru_grid(stream, geometries, profile=profile)
    else:
        results = [None] * len(geometries)
        groups = _group_by_num_sets(geometries)
        for num_sets, indices in groups.items():
            part = partition_stream(stream.blocks, num_sets, profile=profile)
            for idx in indices:
                geometry = geometries[idx]
                cell_start = perf_counter()
                instance = _fresh_instance(policy, seed)
                instance.bind(geometry)
                hits = _run_partitioned(
                    part, geometry, instance, None, profile=profile
                )
                results[idx] = LlcSimResult(
                    policy=instance.name,
                    stream_name=stream.name,
                    accesses=n,
                    hits=hits,
                    misses=n - hits,
                    elapsed_sec=perf_counter() - cell_start,
                    tier=REPLAY_GRID,
                    backend="numpy",
                )
        if profile is not None:
            profile["grid_groups"] = len(groups)
            profile["grid_cells"] = len(geometries)
    telemetry.emit(
        "span", stage="replay_grid", policy=results[0].policy if results else "",
        stream=stream.name, wall_sec=round(perf_counter() - start, 6),
        cells=len(geometries), groups=len(_group_by_num_sets(geometries)),
        accesses=n, tier=REPLAY_GRID,
    )
    return results


def replay_param_grid(
    stream: LlcStream,
    geometry: CacheGeometry,
    policies: Sequence[ReplacementPolicy],
    fastpath: Optional[bool] = None,
    profile=None,
) -> List[LlcSimResult]:
    """Replay a parameter grid of policy variants at one fixed geometry.

    ``policies`` holds one fresh *unbound* instance per grid cell, each
    carrying its own parameters and seed. The stream is partitioned once
    and shared by every set-tier cell; exact-type :class:`SrripPolicy`
    variants additionally collapse into one stacked synchronous kernel
    (all ``rrpv_bits`` variants stepped together). Stochastic and dueling
    variants replay per-variant over the shared partition — exact because
    each variant owns its per-set RNG streams and PSEL series. Scalar-tier
    variants (and stack-tier LRU, which has no parameter axis to share)
    fall back to independent replays with their own tier recorded.
    """
    start = perf_counter()
    n = len(stream.blocks)
    instances = list(policies)
    for instance in instances:
        if not isinstance(instance, ReplacementPolicy):
            raise SimulationError(
                f"parameter grids take policy instances, got {instance!r}"
            )
        if instance.geometry is not None:
            raise SimulationError(
                f"parameter-grid instance {instance.name!r} is already "
                f"bound; grid cells need fresh instances"
            )
    results: List[Optional[LlcSimResult]] = [None] * len(instances)
    if not fastpath_enabled(fastpath):
        for idx, instance in enumerate(instances):
            results[idx] = _scalar_cell(stream, geometry, instance)
        return results
    tiers = [setpath_tier_of(instance) for instance in instances]
    part = None
    if any(tier in (REPLAY_SET, REPLAY_DUELING) for tier in tiers):
        part = partition_stream(
            stream.blocks, num_sets=geometry.num_sets, profile=profile,
        )
    # Exact-type SRRIP variants stack into one synchronous kernel.
    stacked = [
        idx for idx, instance in enumerate(instances)
        if type(instance) is SrripPolicy and tiers[idx] == REPLAY_SET
    ]
    if len(stacked) >= 2:
        kernel_start = perf_counter()
        hits_list = _count_rrip_sync_stacked(
            part, geometry.ways,
            [(instances[idx].rrpv_max, instances[idx].rrpv_max - 1)
             for idx in stacked],
        )
        elapsed = perf_counter() - kernel_start
        if profile is not None:
            profile["stacked_kernel"] = elapsed
            profile["stacked_variants"] = len(stacked)
        for idx, hits in zip(stacked, hits_list):
            instances[idx].bind(geometry)  # grid cells consume their instance
            results[idx] = LlcSimResult(
                policy=instances[idx].name,
                stream_name=stream.name,
                accesses=n,
                hits=hits,
                misses=n - hits,
                elapsed_sec=elapsed / len(stacked),
                tier=REPLAY_GRID,
                backend="numpy",
            )
    for idx, instance in enumerate(instances):
        if results[idx] is not None:
            continue
        tier = tiers[idx]
        if tier in (REPLAY_SET, REPLAY_DUELING):
            cell_start = perf_counter()
            instance.bind(geometry)
            hits = _run_partitioned(
                part, geometry, instance, None, profile=profile
            )
            results[idx] = LlcSimResult(
                policy=instance.name,
                stream_name=stream.name,
                accesses=n,
                hits=hits,
                misses=n - hits,
                elapsed_sec=perf_counter() - cell_start,
                tier=REPLAY_GRID,
                backend="numpy",
            )
        elif tier == REPLAY_STACK:
            results[idx] = replay_lru_fastpath(stream, geometry, profile=profile)
        else:
            # Scalar-tier variants get the native backend when eligible
            # (exact unbound SHiP — parameter variants qualify, the kernel
            # reads each instance's own SHCT geometry); the env escape
            # hatch and everything else land on the scalar model.
            native = try_native_replay(
                stream, geometry, instance, profile=profile,
            )
            results[idx] = native if native is not None else _scalar_cell(
                stream, geometry, instance
            )
    telemetry.emit(
        "span", stage="replay_grid", policy="+".join(
            dict.fromkeys(r.policy for r in results)
        ),
        stream=stream.name, wall_sec=round(perf_counter() - start, 6),
        cells=len(instances), groups=1, accesses=n, tier=REPLAY_GRID,
    )
    return results
