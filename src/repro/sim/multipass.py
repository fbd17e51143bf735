"""Multi-pass simulation helpers.

The standard experiment pipeline is:

1. :func:`record_llc_stream` — run the full hierarchy once (baseline LRU
   LLC) over a workload trace, recording the demand stream that reaches the
   LLC;
2. :func:`run_policy_on_stream` / :func:`run_opt` — replay that stream
   under each policy of interest (all passes see identical accesses).

:func:`run_policy_on_stream` is the one executor of the replay planner
(:func:`repro.sim.plan.plan_replay`): every replay that may take a fast
tier goes through it, and it stamps the plan on the result and on the
replay's telemetry span.
"""

from dataclasses import replace
from typing import Optional, Tuple, Union
from weakref import WeakKeyDictionary

from repro.cache.hierarchy import CmpHierarchy, HierarchyStats
from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry, MachineConfig
from repro.common.rng import derive_seed
from repro.policies.base import REPLAY_SCALAR, ReplacementPolicy
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import make_policy
from repro.policies.ship import ShipPolicy
from repro.sim import telemetry
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import fastpath_enabled
from repro.sim.nativepath import (
    BACKEND_MODEL,
    native_enabled,
    replay_oracle_nativepath,
    replay_ship_nativepath,
)
from repro.sim.plan import plan_replay
from repro.sim.results import LlcSimResult
from repro.sim.setpath import replay_setpath
from repro.trace.trace import Trace


def record_llc_stream(
    trace: Trace,
    machine: MachineConfig,
    policy_name: str = "lru",
    seed: int = 0,
) -> Tuple[LlcStream, HierarchyStats]:
    """Run the full hierarchy over ``trace`` and record the LLC stream.

    Args:
        trace: interleaved multi-thread trace.
        machine: CMP configuration.
        policy_name: LLC policy used *during recording* (LRU by default;
            the recorded stream is then replayed under other policies).
        seed: seed for stochastic recording policies.
    """
    policy = make_policy(policy_name, seed=derive_seed(seed, "record", policy_name))
    hierarchy = CmpHierarchy(machine, policy, record_stream=True)
    stats = hierarchy.run(trace)
    stream = hierarchy.stream()
    stream.name = f"{trace.name}@{machine.name}"
    return stream, stats


def run_policy_on_stream(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: Union[str, ReplacementPolicy],
    seed: int = 0,
    observers: Tuple = (),
    fastpath: Optional[bool] = None,
    native: Optional[bool] = None,
) -> LlcSimResult:
    """Replay ``stream`` under a policy given by name or instance.

    A name builds its registry instance seeded
    ``derive_seed(seed, "replay", name)``; callers with their own seed
    derivation pass an instance. The replay planner picks the engine —
    the set-partitioned or dueling kernels, a compact kernel, or the
    object model, all bit-identical — and the result and
    the one ``replay`` span carry its tier, backend and decline reason.
    ``fastpath``/``native`` are three-state gates (``None`` defers to
    ``REPRO_SIM_NO_FASTPATH``/``REPRO_SIM_NO_NATIVE``).
    """
    if isinstance(policy, str):
        policy = make_policy(policy, seed=derive_seed(seed, "replay", policy))
    plan = plan_replay(
        policy, observers, stream, fastpath_enabled(fastpath),
        native_enabled(native),
    )
    if plan.tier != REPLAY_SCALAR:
        result = replay_setpath(stream, geometry, policy, observers=observers)
    elif plan.backend == BACKEND_MODEL:
        simulator = LlcOnlySimulator(geometry, policy, observers=observers)
        result = simulator.run(stream)
    elif isinstance(policy, ShipPolicy):
        result = replay_ship_nativepath(stream, geometry, policy)
    else:
        result = replay_oracle_nativepath(stream, geometry, policy)
    result = replace(result, reason=plan.reason)
    # One event per replay (never per access): disabled telemetry costs
    # one global None check inside telemetry.emit.
    telemetry.emit(
        "span", stage="replay", policy=result.policy,
        stream=result.stream_name, wall_sec=round(result.elapsed_sec, 6),
        accesses=result.accesses, hits=result.hits, misses=result.misses,
        tier=plan.tier, backend=plan.backend, reason=plan.reason,
    )
    return result


_NEXT_USE_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()
"""Per-stream cache of the OPT next-use column (geometry-independent)."""


def stream_next_use(stream: LlcStream):
    """The stream's next-use column, computed once and shared.

    Next-use positions depend only on the block sequence — never on the
    geometry or policy — so one computation serves every OPT replay and
    every sweep cell over the same stream. Memoized weakly: the column
    dies with its stream.
    """
    next_use = _NEXT_USE_MEMO.get(stream)
    if next_use is None:
        next_use = compute_next_use(stream.blocks)
        _NEXT_USE_MEMO[stream] = next_use
    return next_use


def run_opt(
    stream: LlcStream,
    geometry: CacheGeometry,
    observers: Tuple = (),
    fastpath: Optional[bool] = None,
) -> LlcSimResult:
    """Replay ``stream`` under Belady's OPT (offline optimal).

    OPT's per-way next-use positions are indexed by the global stream
    ordinal, which the set partition preserves, so the replay takes the
    set-partitioned engine unless fast paths are disabled. The next-use
    column itself is geometry-independent and shared across calls
    (:func:`stream_next_use`).
    """
    return run_policy_on_stream(
        stream, geometry, BeladyOptPolicy(stream_next_use(stream)),
        observers=observers, fastpath=fastpath,
    )
