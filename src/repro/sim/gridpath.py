"""Grid replay: a whole LRU associativity grid in one replay.

The paper's headline artifacts — the F7 capacity sweep, the A1/A2
ablations, the t2 configuration table — are *grids* of (policy, geometry,
parameter) cells over one recorded stream. One grid axis decomposes
exactly: LRU is a stack algorithm, so one lockstep LRU replay at the
grid's maximum ways, read in rank mode
(:func:`repro.sim.setpath.lru_ranks`), classifies every access for
**every** smaller associativity at the same ``num_sets`` — ``hit iff
stack distance < ways`` (Mattson inclusion). A whole ways sweep is one
replay plus a histogram threshold per cell, and a capacity grid costs
one replay per distinct ``num_sets``. Only those cells carry the
engine-assigned ``grid`` tier (:data:`repro.policies.base.REPLAY_GRID`),
with the kernel's ``numpy`` backend.

Every other cell — a policy other than exact unbound LRU, every
parameter-grid cell, every cell with the fast path off — is one
:func:`repro.sim.multipass.run_policy_on_stream` replay: it carries its
own plan's tier, backend and decline reason and emits its own ``replay``
span, so scalar-tier policies (SHiP, the oracle wrapper over SHiP, bound
instances) are never silently mis-replayed. The oracle layer shares its
geometry-independent work across cells itself
(:func:`repro.oracle.runner.run_oracle_study_grid`). Every grid cell is
bit-identical to its per-cell replay (``tests/sim/test_gridpath.py``
pins the matrix); DESIGN.md decision 10 has the exactness argument.
"""

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import derive_seed
from repro.policies.base import REPLAY_GRID, ReplacementPolicy
from repro.policies.lru import LruPolicy
from repro.policies.registry import make_policy
from repro.sim import telemetry
from repro.sim.fastpath import fastpath_enabled
from repro.sim.multipass import run_policy_on_stream
from repro.sim.results import LlcSimResult
from repro.sim.setpath import lru_ranks

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

    One rank-mode replay at ``max(ways_grid)`` ways
    (:func:`repro.sim.setpath.lru_ranks`) yields every access's capped
    per-set stack distance; by Mattson inclusion ``hit iff distance <
    w`` for each ``w``, so the whole grid reduces to one ``bincount`` of
    the distances and one cumulative-sum threshold per cell. Returns
    ``{ways: hits}``.
    """
    if not ways_grid:
        return {}
    cap = max(ways_grid)
    ranks = lru_ranks(blocks, num_sets, cap)
    cum = np.cumsum(np.bincount(ranks, minlength=cap + 1))
    return {w: int(cum[w - 1]) for w in ways_grid}


def replay_lru_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    profile=None,
) -> List[LlcSimResult]:
    """Replay ``stream`` under exact LRU for every geometry in one pass each.

    Cells are grouped by ``num_sets``; each group costs one rank-mode
    replay (:func:`lru_grid_hits`) regardless of how many associativities
    it spans. Results are positionally aligned with ``geometries`` and
    bit-identical to per-cell
    :func:`repro.sim.multipass.run_policy_on_stream` LRU replays, with the
    ``grid`` tier and the kernel's ``numpy`` backend recorded; one
    ``replay_grid`` span covers the whole grid.
    """
    n = len(stream.blocks)
    results: List[Optional[LlcSimResult]] = [None] * len(geometries)
    groups: Dict[int, List[int]] = {}
    for idx, geometry in enumerate(geometries):
        groups.setdefault(geometry.num_sets, []).append(idx)
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
                policy="lru", stream_name=stream.name, accesses=n,
                hits=hits, misses=n - hits, elapsed_sec=share,
                tier=REPLAY_GRID, backend="numpy",
            )
    if profile is not None:
        profile["grid_groups"] = len(groups)
        profile["grid_cells"] = len(geometries)
        profile["distance_walk"] = walk_sec
    telemetry.emit(
        "span", stage="replay_grid", policy="lru", stream=stream.name,
        wall_sec=round(walk_sec, 6), cells=len(geometries),
        groups=len(groups), accesses=n, tier=REPLAY_GRID, backend="numpy",
    )
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


def replay_geometry_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    policy: PolicySpec = "lru",
    seed: int = 0,
    fastpath: Optional[bool] = None,
    profile=None,
) -> List[LlcSimResult]:
    """Replay one policy across a whole geometry grid.

    An exact unbound :class:`LruPolicy` spec with the fast path on takes
    :func:`replay_lru_grid`: one rank-mode replay per distinct
    ``num_sets`` classifies every associativity cell. Every other spec
    replays each cell through
    :func:`repro.sim.multipass.run_policy_on_stream`, with its own plan
    recorded.

    A factory spec is called at most once per cell: the instance that
    picks the path serves cell 0. Results align positionally with
    ``geometries`` and are bit-identical to per-cell replays of the same
    spec.
    """
    first = _fresh_instance(policy, seed)
    if type(first) is LruPolicy and fastpath_enabled(fastpath):
        return replay_lru_grid(stream, geometries, profile=profile)
    if profile is not None:
        profile["grid_cells"] = len(geometries)
    return [
        run_policy_on_stream(
            stream, geometry,
            first if idx == 0 else _fresh_instance(policy, seed),
            fastpath=fastpath,
        )
        for idx, geometry in enumerate(geometries)
    ]


def replay_param_grid(
    stream: LlcStream,
    geometry: CacheGeometry,
    policies: Sequence[ReplacementPolicy],
    fastpath: Optional[bool] = None,
    profile=None,
) -> List[LlcSimResult]:
    """Replay a parameter grid of policy variants at one fixed geometry.

    ``policies`` holds one fresh *unbound* instance per grid cell, each
    carrying its own parameters and seed. Every cell is one
    :func:`repro.sim.multipass.run_policy_on_stream` replay with its own
    plan recorded; ``profile``, when a dict, receives ``grid_cells``.
    """
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
    if profile is not None:
        profile["grid_cells"] = len(instances)
    return [
        run_policy_on_stream(stream, geometry, instance, fastpath=fastpath)
        for instance in instances
    ]
