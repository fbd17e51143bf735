"""Single-pass grid replay: whole configuration grids in one stream walk.

The paper's headline artifacts — the F7 capacity sweep, the A1/A2
ablations, the t2 configuration table — are *grids* of (policy, geometry,
parameter) cells over one recorded stream. Replaying once per cell wastes
the structure the exact fast paths already expose:

* **Associativity grids** (fixed ``num_sets``): LRU is a stack algorithm,
  so one capped stack walk at the grid's maximum ways
  (:func:`repro.sim.fastpath.lru_stack_distances`) classifies every
  access for **every** smaller associativity simultaneously —
  ``hit iff stack distance < ways`` (Mattson inclusion). A whole ways
  sweep is one walk plus a histogram threshold per cell.
* **Capacity grids** (varying ``num_sets``): sets are renamed, so cells do
  not share a walk — but they share everything geometry-independent. The
  grid layer re-partitions once per *distinct* ``num_sets`` and the oracle
  layer (:func:`repro.oracle.runner.run_oracle_study_grid`) shares the
  stream's next-use/annotation work across all cells.
* **Parameter grids** (fixed geometry, e.g. SRRIP ``rrpv_bits``): the
  lockstep kernel's SRRIP recurrence generalizes to a stacked variant
  axis (:func:`repro.sim.setpath._count_rrip_sync_stacked`) — all
  variants step through one numpy recurrence. Stochastic variants
  (BIP/BRRIP epsilons) and dueling variants (DIP/DRRIP, and the oracle
  over them) step the lockstep kernel per variant over the *shared*
  partition: each variant draws its own per-set RNG sequences and
  rebuilds its own PSEL series, so sharing the partition is exact.

Which cells share a pass is the replay planner's call
(:func:`repro.sim.plan.plan_replay`): results produced by a shared pass
carry the engine-assigned ``grid`` tier
(:data:`repro.policies.base.REPLAY_GRID`), and every other cell is an
independent :func:`repro.sim.multipass.run_policy_on_stream` replay with
its own tier, backend and reason recorded — so scalar-tier policies
(SHiP, the oracle wrapper over SHiP, bound instances) are never silently
mis-replayed.
Every grid cell is bit-identical to its per-cell replay
(``tests/sim/test_gridpath.py`` pins the full matrix); DESIGN.md
decision 10 has the exactness argument.
"""

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import derive_seed
from repro.policies.base import (
    REPLAY_DUELING,
    REPLAY_GRID,
    REPLAY_SCALAR,
    REPLAY_SET,
    ReplacementPolicy,
)
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim import telemetry
from repro.sim.fastpath import fastpath_enabled, lru_stack_distances
from repro.sim.multipass import run_policy_on_stream
from repro.sim.nativepath import native_enabled
from repro.sim.plan import plan_replay
from repro.sim.results import LlcSimResult
from repro.sim.setpath import (
    _count_rrip_sync_stacked,
    _run_partitioned,
    partition_stream,
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

    One stack walk capped at ``max(ways_grid)``
    (:func:`repro.sim.fastpath.lru_stack_distances`) yields every access's
    per-set stack distance; by Mattson inclusion ``hit iff distance < w``
    for each ``w``, so the whole grid reduces to one ``bincount`` of the
    distances and one cumulative-sum threshold per cell. Returns
    ``{ways: hits}``.
    """
    if not ways_grid:
        return {}
    cap = max(ways_grid)
    distances = np.frombuffer(
        lru_stack_distances(blocks, num_sets, cap), dtype=np.int32)
    cum = np.cumsum(np.bincount(distances, minlength=cap + 1))
    return {w: int(cum[w - 1]) for w in ways_grid}


def _group_by_num_sets(geometries) -> Dict[int, List[int]]:
    """Grid cell indices grouped by ``num_sets`` (partition-sharing unit)."""
    groups: Dict[int, List[int]] = {}
    for idx, geometry in enumerate(geometries):
        groups.setdefault(geometry.num_sets, []).append(idx)
    return groups


def _grid_result(stream: LlcStream, policy: str, hits: int,
                 elapsed: float, backend: str = "numpy") -> LlcSimResult:
    """One cell's counters from a shared pass, with the ``grid`` tier."""
    n = len(stream.blocks)
    return LlcSimResult(
        policy=policy, stream_name=stream.name, accesses=n, hits=hits,
        misses=n - hits, elapsed_sec=elapsed, tier=REPLAY_GRID,
        backend=backend,
    )


def replay_lru_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    profile=None,
) -> List[LlcSimResult]:
    """Replay ``stream`` under exact LRU for every geometry in one pass each.

    Cells are grouped by ``num_sets``; each group costs one capped stack
    walk (:func:`lru_grid_hits`) regardless of how many associativities it
    spans. Results are positionally aligned with ``geometries`` and
    bit-identical to per-cell
    :func:`repro.sim.multipass.run_policy_on_stream` LRU replays, with the
    ``grid`` tier and the walk's ``python`` backend recorded.
    """
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
            results[idx] = _grid_result(
                stream, "lru", hits_by_ways[geometries[idx].ways], share,
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


def _grid_tier(instance: ReplacementPolicy, stream: LlcStream,
               fastpath: Optional[bool]) -> str:
    """The tier the replay planner gives one grid cell's instance."""
    return plan_replay(
        instance, (), stream, fastpath_enabled(fastpath), native_enabled(),
    ).tier


def replay_geometry_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    policy: PolicySpec = "lru",
    seed: int = 0,
    fastpath: Optional[bool] = None,
    profile=None,
) -> List[LlcSimResult]:
    """Replay one policy across a whole geometry grid, sharing every pass.

    Dispatch by the tier the replay planner gives the policy:

    * ``scalar`` — or fast paths disabled — independent per-cell
      :func:`repro.sim.multipass.run_policy_on_stream` replays, each with
      its own plan recorded;
    * an exact unbound :class:`LruPolicy` (a ``set``-tier policy) — one
      capped stack walk per distinct ``num_sets`` classifies every
      associativity cell (:func:`replay_lru_grid`);
    * any other ``set``/``dueling`` policy — one stream partition per
      distinct ``num_sets``, shared by every cell of that group (the
      partition depends only on ``num_sets``); each cell steps a fresh
      instance's kernels over it.

    A factory spec is called at most once per cell: the instance that is
    planned serves cell 0. Results align positionally with ``geometries``
    and are bit-identical to per-cell replays of the same spec.
    """
    start = perf_counter()
    n = len(stream.blocks)
    first = _fresh_instance(policy, seed)

    def instance_for(idx: int) -> ReplacementPolicy:
        return first if idx == 0 else _fresh_instance(policy, seed)

    tier = _grid_tier(first, stream, fastpath)
    if tier == REPLAY_SCALAR:
        results = [
            run_policy_on_stream(
                stream, geometry, instance_for(idx), fastpath=fastpath,
            )
            for idx, geometry in enumerate(geometries)
        ]
        if profile is not None:
            profile["grid_cells"] = len(geometries)
            profile["grid_fallback_cells"] = len(geometries)
        return results
    if type(first) is LruPolicy:
        results = replay_lru_grid(stream, geometries, profile=profile)
    else:
        results = [None] * len(geometries)
        groups = _group_by_num_sets(geometries)
        for num_sets, indices in groups.items():
            part = partition_stream(stream.blocks, num_sets, profile=profile)
            for idx in indices:
                geometry = geometries[idx]
                cell_start = perf_counter()
                instance = instance_for(idx)
                hits = _run_partitioned(
                    stream, part, geometry, instance, None, profile=profile
                )
                results[idx] = _grid_result(
                    stream, instance.name, hits, perf_counter() - cell_start,
                )
        if profile is not None:
            profile["grid_groups"] = len(groups)
            profile["grid_cells"] = len(geometries)
    telemetry.emit(
        "span", stage="replay_grid", policy=results[0].policy if results else "",
        stream=stream.name, wall_sec=round(perf_counter() - start, 6),
        cells=len(geometries), groups=len(_group_by_num_sets(geometries)),
        accesses=n, tier=REPLAY_GRID,
        backend=results[0].backend if results else "",
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
    and shared by every cell the replay planner puts on the set or
    dueling tier; exact-type :class:`SrripPolicy` variants additionally
    collapse into one stacked synchronous kernel (all ``rrpv_bits``
    variants stepped together). Stochastic and dueling variants replay
    per-variant over the shared partition — exact because each variant
    owns its per-set RNG streams and PSEL series. Every scalar-tier cell
    is an independent :func:`repro.sim.multipass.run_policy_on_stream`
    replay with its own plan recorded.
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
    shared = [
        idx for idx, instance in enumerate(instances)
        if _grid_tier(instance, stream, fastpath)
        in (REPLAY_SET, REPLAY_DUELING)
    ]
    if shared:
        part = partition_stream(
            stream.blocks, num_sets=geometry.num_sets, profile=profile,
        )
        # Exact-type SRRIP variants stack into one synchronous kernel.
        stacked = [
            idx for idx in shared if type(instances[idx]) is SrripPolicy
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
                # Grid cells consume their instance.
                instances[idx].bind(geometry)
                results[idx] = _grid_result(
                    stream, instances[idx].name, hits, elapsed / len(stacked),
                )
        for idx in shared:
            if results[idx] is not None:
                continue
            instance = instances[idx]
            cell_start = perf_counter()
            hits = _run_partitioned(
                stream, part, geometry, instance, None, profile=profile
            )
            results[idx] = _grid_result(
                stream, instance.name, hits, perf_counter() - cell_start,
            )
        telemetry.emit(
            "span", stage="replay_grid", policy="+".join(
                dict.fromkeys(results[idx].policy for idx in shared)
            ),
            stream=stream.name, wall_sec=round(perf_counter() - start, 6),
            cells=len(shared), groups=1, accesses=n, tier=REPLAY_GRID,
            backend="numpy",
        )
    for idx, instance in enumerate(instances):
        if results[idx] is None:
            results[idx] = run_policy_on_stream(
                stream, geometry, instance, fastpath=fastpath,
            )
    return results
