"""End-to-end oracle studies over one recorded LLC stream."""

from collections import OrderedDict
from dataclasses import dataclass
from threading import Lock
from typing import List, Optional, Sequence, Tuple
from weakref import ref

from repro.cache.stream import LlcStream
from repro.characterization.report import characterize_stream
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.oracle.annotate import (
    BUDGET_CAP,
    AnnotationHintSource,
    build_stream_annotation,
)
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.registry import make_policy
from repro.sim.multipass import run_policy_on_stream
from repro.sim.results import LlcSimResult


MAX_HORIZON_FACTOR = 10
"""Upper bound on the auto-derived horizon, in LLC-capacity multiples.

At low base miss ratios the turnover rule would ask for enormous horizons;
past roughly ten capacity multiples the annotation starts promising sharing
no replacement decision can actually bridge, and over-protection causes
regressions on near-fitting workloads. The sweep behind this constant is
the A1/F7 territory: cap 10 preserves the average gains at both LLC sizes
while eliminating every per-app regression.
"""

DEFAULT_HORIZON_TURNOVERS = 1.75
"""How many cache turnovers a protected block may be held for.

A block that is never reused survives roughly one turnover — the time the
base policy takes to replace the whole cache, ``num_blocks / miss_ratio``
accesses. Protection is worth engineering for sharing that arrives within a
small multiple of that; sharing farther out is unreachable for any
replacement decision made at fill time. Because miss ratios fall with
capacity, the horizon in accesses grows *super-linearly* with LLC size,
which is what makes the oracle's gains grow from the 4MB to the 8MB
configuration (the paper's 6% -> 10%).
"""


ANNOTATION_MEMO_CAPACITY = 32
"""LRU bound on the annotation memo, in (stream, window, cap) entries.

An annotation array is 4 bytes per access; a long capacity sweep over many
streams could otherwise accumulate one array per (stream, window) pair
with nothing ever letting go while the streams stay referenced by the
experiment context. 32 comfortably covers every window a single study
grid produces while keeping the worst case bounded.
"""

_ANNOTATION_MEMO: "OrderedDict" = OrderedDict()
"""LRU cache of stream annotations, keyed by (stream ref, window, cap).

The policy-free annotation depends on the geometry only through the window
``horizon_factor * geometry.num_blocks`` (and the saturation cap), so one
computation serves every sweep cell whose window coincides — in particular
every A1 variant of one study, and any capacity cells whose factor/horizon
products collide. Keys hold weak stream references (annotations die with
their stream) and the mapping is bounded at
:data:`ANNOTATION_MEMO_CAPACITY` entries, least-recently-used first out.
Guarded by a lock: the memo is process-wide, and a library caller may
replay from several threads of its own.
"""

_ANNOTATION_MEMO_LOCK = Lock()
_ANNOTATION_MEMO_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def _drop_dead_annotations(_dead_ref) -> None:
    """Weakref callback: purge every entry whose stream has died."""
    with _ANNOTATION_MEMO_LOCK:
        for key in [k for k in _ANNOTATION_MEMO if k[0]() is None]:
            del _ANNOTATION_MEMO[key]


def stream_annotation(
    stream: LlcStream,
    geometry: CacheGeometry,
    horizon_factor: int,
    cap: int = BUDGET_CAP,
):
    """Annotation budgets for one (stream, window) pair, computed once.

    Exactly :func:`repro.oracle.annotate.build_stream_annotation`, shared
    across all callers whose effective window
    (``horizon_factor * geometry.num_blocks``, ``cap``) matches.
    """
    key = (
        ref(stream, _drop_dead_annotations),
        horizon_factor * geometry.num_blocks,
        cap,
    )
    with _ANNOTATION_MEMO_LOCK:
        budgets = _ANNOTATION_MEMO.get(key)
        if budgets is not None:
            _ANNOTATION_MEMO.move_to_end(key)
            _ANNOTATION_MEMO_COUNTERS["hits"] += 1
            return budgets
        _ANNOTATION_MEMO_COUNTERS["misses"] += 1
    budgets = build_stream_annotation(
        stream, geometry, horizon_factor=horizon_factor, cap=cap
    )
    with _ANNOTATION_MEMO_LOCK:
        # A racing thread may have inserted the same key meanwhile; both
        # computed bit-identical arrays, so last-writer-wins is harmless.
        _ANNOTATION_MEMO[key] = budgets
        _ANNOTATION_MEMO.move_to_end(key)
        while len(_ANNOTATION_MEMO) > ANNOTATION_MEMO_CAPACITY:
            _ANNOTATION_MEMO.popitem(last=False)
            _ANNOTATION_MEMO_COUNTERS["evictions"] += 1
    return budgets


def annotation_memo_stats() -> dict:
    """Occupancy and hit/miss/eviction counters of the annotation memo.

    Per-process and in-memory (``repro-sim cache info`` renders them for
    the running process); ``entries`` counts live cached annotations,
    ``capacity`` is :data:`ANNOTATION_MEMO_CAPACITY`.
    """
    with _ANNOTATION_MEMO_LOCK:
        return {
            "entries": len(_ANNOTATION_MEMO),
            "capacity": ANNOTATION_MEMO_CAPACITY,
            **_ANNOTATION_MEMO_COUNTERS,
        }


def annotation_memo_clear() -> None:
    """Empty the annotation memo and zero its counters."""
    with _ANNOTATION_MEMO_LOCK:
        _ANNOTATION_MEMO.clear()
        for counter in _ANNOTATION_MEMO_COUNTERS:
            _ANNOTATION_MEMO_COUNTERS[counter] = 0


@dataclass(frozen=True)
class OracleStudyResult:
    """Base-vs-oracle comparison for one (stream, geometry, base) triple."""

    base: LlcSimResult
    oracle: LlcSimResult
    protected_fills: int
    exemptions: int
    horizon_factor: int = 0

    @property
    def miss_reduction(self) -> float:
        """Fractional miss reduction of the oracle over the base policy."""
        return self.oracle.miss_reduction_vs(self.base)


def run_oracle_study(
    stream: LlcStream,
    geometry: CacheGeometry,
    base: str = "lru",
    mode: str = "both",
    release: str = "budget",
    horizon_turnovers: float = DEFAULT_HORIZON_TURNOVERS,
    horizon_factor: Optional[int] = None,
    cap: int = BUDGET_CAP,
    seed: int = 0,
    fastpath: Optional[bool] = None,
    native: Optional[bool] = None,
) -> OracleStudyResult:
    """Measure the sharing oracle's gain over ``base`` on ``stream``.

    Three steps: (1) replay the plain base policy for the baseline miss
    count; (2) build the policy-free future-sharing annotation of the
    stream; (3) replay the oracle-wrapped base consuming that annotation.
    Both replays see the identical stream, so the miss delta is
    attributable to sharing-aware protection alone. The base pass's
    shared-fill fraction is :func:`shared_fill_fraction`, for the callers
    that report it.

    Args:
        stream: recorded LLC demand stream.
        geometry: LLC geometry.
        base: base policy name.
        mode: protection mechanism (see ``PROTECTION_MODES``).
        release: protection release policy (see ``RELEASE_POLICIES``).
        horizon_turnovers: retention horizon in cache turnovers of the base
            policy (see :data:`DEFAULT_HORIZON_TURNOVERS`); converted to
            capacity multiples using the measured base miss ratio.
        horizon_factor: explicit horizon in capacity multiples, overriding
            ``horizon_turnovers`` when given.
        cap: budget saturation value.
        seed: seed for stochastic base policies (both replays re-seed the
            base identically so only the oracle differs).
        fastpath: three-state gate for the exact replay fast paths on
            both replays — the lockstep set or dueling kernel for every
            per-set base and for the wrapper over LRU, LIP, BIP, SRRIP,
            BRRIP, DIP or DRRIP (None = auto).
        native: three-state gate for the compact kernel of the wrapper
            over SHiP (:func:`repro.sim.nativepath.replay_oracle_nativepath`,
            bit-identical); ``False`` or ``REPRO_SIM_NO_NATIVE`` restores
            the scalar object model for it.
    """
    return run_oracle_variants(
        stream, geometry, [(mode, release)], base=base,
        horizon_turnovers=horizon_turnovers, horizon_factor=horizon_factor,
        cap=cap, seed=seed, fastpath=fastpath, native=native,
    )[0]


def _base_seed(seed: int, base: str) -> int:
    """The seed of every base-policy instance one study builds."""
    return derive_seed(seed, "oracle-base", base)


def _base_pass(
    stream: LlcStream,
    geometry: CacheGeometry,
    base: str,
    horizon_turnovers: float,
    horizon_factor: Optional[int],
    seed: int,
    fastpath: Optional[bool],
) -> Tuple[LlcSimResult, int]:
    """The variant-independent prefix of an oracle study.

    Replays the plain base once, with no observer, so it runs on the
    base's planned engine, and derives the retention horizon from its miss
    ratio. Nothing here depends on the protection mode or release policy,
    which is what lets a whole A1 variant grid share one base pass.
    """
    # An instance (not the name) keeps the "oracle-base" seed derivation.
    base_result = run_policy_on_stream(
        stream, geometry, make_policy(base, seed=_base_seed(seed, base)),
        fastpath=fastpath,
    )
    if horizon_factor is None:
        miss_ratio = max(base_result.miss_ratio, 1e-3)
        horizon_factor = max(
            1, min(int(horizon_turnovers / miss_ratio), MAX_HORIZON_FACTOR)
        )
    return base_result, horizon_factor


def shared_fill_fraction(
    stream: LlcStream,
    geometry: CacheGeometry,
    base: str = "lru",
    seed: int = 0,
    fastpath: Optional[bool] = None,
) -> float:
    """Fraction of the oracle base pass's residencies that were shared.

    A shared residency is one two or more cores touched (DESIGN decision
    7). The characterization replay is seeded exactly like the base pass
    of :func:`run_oracle_study` with the same ``base`` and ``seed``, so it
    sees the same residencies. It is a replay of its own because its
    observer costs a per-residency callback replay and keeps SHiP off the
    compact kernel; only the reports that print the fraction pay for it.
    """
    report = characterize_stream(
        stream, geometry, policy_name=base, seed=_base_seed(seed, base),
        track_phases=False, fastpath=fastpath,
    )
    return report.breakdown.shared_residency_fraction


def run_oracle_variants(
    stream: LlcStream,
    geometry: CacheGeometry,
    variants: Sequence[Tuple[str, str]],
    base: str = "lru",
    horizon_turnovers: float = DEFAULT_HORIZON_TURNOVERS,
    horizon_factor: Optional[int] = None,
    cap: int = BUDGET_CAP,
    seed: int = 0,
    fastpath: Optional[bool] = None,
    native: Optional[bool] = None,
) -> List[OracleStudyResult]:
    """One oracle study per ``(mode, release)`` variant, sharing every
    variant-independent pass.

    The plain base replay, the horizon derivation, and the stream
    annotation do not depend on the protection variant — only the wrapped
    oracle replay does. A whole A1-style ablation therefore costs one base
    pass, one annotation, and one wrapped replay per variant, with every
    cell bit-identical to an independent :func:`run_oracle_study` call.
    Results align positionally with ``variants``. The wrapped replay goes
    through the replay planner, so annotation-backed wrappers take the
    lockstep kernel over a recency or RRIP base (``dueling`` over DIP and
    DRRIP) and the compact kernel over SHiP unless gated off
    (``fastpath=False``, for SHiP also ``native=False``, or their
    environment toggles); the wrapper's study counters are identical
    either way.
    """
    if horizon_turnovers <= 0:
        raise ConfigError(
            f"horizon_turnovers must be positive, got {horizon_turnovers}"
        )
    base_result, horizon_factor = _base_pass(
        stream, geometry, base, horizon_turnovers, horizon_factor, seed,
        fastpath,
    )
    budgets = stream_annotation(stream, geometry, horizon_factor, cap=cap)
    studies = []
    for mode, release in variants:
        wrapper = SharingAwareWrapper(
            make_policy(base, seed=_base_seed(seed, base)),
            AnnotationHintSource(budgets), mode, release=release,
        )
        oracle_result = run_policy_on_stream(
            stream, geometry, wrapper, fastpath=fastpath, native=native,
        )
        studies.append(OracleStudyResult(
            base=base_result,
            oracle=oracle_result,
            protected_fills=wrapper.protected_fills,
            exemptions=wrapper.exemptions_applied,
            horizon_factor=horizon_factor,
        ))
    return studies


def run_oracle_study_grid(
    stream: LlcStream,
    geometries: Sequence[CacheGeometry],
    base: str = "lru",
    mode: str = "both",
    release: str = "budget",
    horizon_turnovers: float = DEFAULT_HORIZON_TURNOVERS,
    horizon_factor: Optional[int] = None,
    cap: int = BUDGET_CAP,
    seed: int = 0,
    fastpath: Optional[bool] = None,
    native: Optional[bool] = None,
) -> List[OracleStudyResult]:
    """One oracle study per geometry over a single stream — the F7 grid.

    The per-cell passes that genuinely depend on the geometry (the plain
    base replay, the wrapped oracle replay) run per cell; everything
    geometry-invariant is shared through the per-stream memos —
    annotations whose effective window coincides
    (:func:`stream_annotation`) are computed once, and capacity cells that
    pull OPT comparisons share the stream's next-use column
    (:func:`repro.sim.multipass.stream_next_use`). Cells are bit-identical
    to independent :func:`run_oracle_study` calls and align positionally
    with ``geometries``.
    """
    return [
        run_oracle_study(
            stream, geometry, base=base, mode=mode, release=release,
            horizon_turnovers=horizon_turnovers,
            horizon_factor=horizon_factor, cap=cap, seed=seed,
            fastpath=fastpath, native=native,
        )
        for geometry in geometries
    ]
