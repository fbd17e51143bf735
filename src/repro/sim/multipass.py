"""Multi-pass simulation helpers.

The standard experiment pipeline is:

1. :func:`record_llc_stream` — run the full hierarchy once (baseline LRU
   LLC) over a workload trace, recording the demand stream that reaches the
   LLC;
2. :func:`run_policy_on_stream` / :func:`run_opt` — replay that stream
   under each policy of interest (all passes see identical accesses).
"""

from typing import Optional, Tuple, Union
from weakref import WeakKeyDictionary

from repro.cache.hierarchy import CmpHierarchy, HierarchyStats
from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry, MachineConfig
from repro.common.rng import derive_seed
from repro.policies.base import ReplacementPolicy
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import make_policy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.results import LlcSimResult
from repro.sim.setpath import try_fast_replay
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

    Replays route through the fastest exact replay tier the policy
    declares (:func:`repro.sim.setpath.try_fast_replay`): plain LRU takes
    the stack-distance path, the per-set policy matrix (LIP/BIP/NRU/
    SRRIP/BRRIP/random) the set-partitioned kernels, and DIP/DRRIP the
    two-phase dueling reconstruction — all bit-identical to the scalar
    model. Scalar-tier policies that the native backend covers (exact
    unbound SHiP, no observers) take its compact kernel unless
    ``native`` is False or ``REPRO_SIM_NO_NATIVE`` is set; everything else
    scalar (wrappers, bound instances), or any replay with ``fastpath``
    False / ``REPRO_SIM_NO_FASTPATH`` set, goes through the scalar model.
    """
    result = try_fast_replay(
        stream, geometry, policy, seed=seed, observers=observers,
        fastpath=fastpath, native=native,
    )
    if result is not None:
        return result
    if isinstance(policy, str):
        policy = make_policy(policy, seed=derive_seed(seed, "replay", policy))
    simulator = LlcOnlySimulator(geometry, policy, observers=observers)
    return simulator.run(stream)


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
    policy = BeladyOptPolicy(stream_next_use(stream))
    result = try_fast_replay(
        stream, geometry, policy, observers=observers, fastpath=fastpath
    )
    if result is not None:
        return result
    simulator = LlcOnlySimulator(geometry, policy, observers=observers)
    return simulator.run(stream)
