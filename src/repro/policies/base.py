"""Replacement-policy interface.

A policy owns only its replacement metadata (recency stamps, RRPVs,
signature tables, ...); tag state lives in the LLC. The LLC calls:

* :meth:`ReplacementPolicy.on_fill` when a block is installed into a way
  (every fill corresponds to one demand miss),
* :meth:`ReplacementPolicy.on_hit` on a demand hit,
* :meth:`ReplacementPolicy.select_victim` when a fill finds its set full,
* :meth:`ReplacementPolicy.on_evict` after the victim leaves.

Policies that need global context (the sharing-oracle wrapper keys its
annotations by LLC access ordinal) read it from :attr:`llc`, which the LLC
sets at attach time.
"""

from abc import ABC, abstractmethod
from typing import Dict, Optional

from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng, derive_seed

REPLAY_STACK = "stack"
"""Label of the retired LRU stack-distance tier. No replay produces it any
more: plain LRU takes :data:`REPLAY_SET`. It stays in :data:`REPLAY_TIERS`
because historic run records carry it and the end-to-end benchmark
(``bench/measure.py``) names one ``sim.replay.tier.*`` metric per entry of
that tuple."""

REPLAY_SET = "set"
"""Exact set-partitioned replay: sets are independent state machines."""

REPLAY_DUELING = "dueling"
"""Set-partitioned replay with two-phase PSEL reconstruction (DIP/DRRIP)."""

REPLAY_SCALAR = "scalar"
"""No exact fast path is known; replay through the scalar cache model."""

REPLAY_GRID = "grid"
"""Grid replay: one pass amortised across a whole configuration grid.

Never planned for a single replay — it is an engine tier stamped on
results by :mod:`repro.sim.gridpath` when a cell's counters came out of a
shared single-pass walk (stack-distance thresholding across ways, a
stacked parameter kernel, or a shared set partition) rather than an
independent replay (see DESIGN.md decision 10).
"""

REPLAY_TIERS = (REPLAY_STACK, REPLAY_SET, REPLAY_DUELING, REPLAY_SCALAR)
"""Every tier a replay result may carry: the three the replay planner
(:func:`repro.sim.plan.plan_replay`) picks from, fastest-first (see
DESIGN.md decision 9), after the retired :data:`REPLAY_STACK`, which it
no longer picks; :data:`REPLAY_GRID` is engine-assigned and deliberately
absent here."""


class ReplacementPolicy(ABC):
    """Base class of all LLC replacement policies."""

    name: str = "base"

    def __init__(self):
        self.geometry = None
        self.num_sets = 0
        self.ways = 0
        self.llc = None
        self._rng_seed: Optional[int] = None
        self._set_rngs: Dict[int, DeterministicRng] = {}

    def set_rng(self, set_index: int) -> DeterministicRng:
        """Lazily-created independent RNG stream for one set.

        Stochastic policies draw per-set rather than from one global
        stream so that draw indices depend only on the set's own fill
        sequence — the property that makes set-partitioned replay exact
        (DESIGN.md decision 9). Streams are keyed off the policy seed via
        :func:`derive_seed`, so a whole replay stays reproducible.
        """
        rng = self._set_rngs.get(set_index)
        if rng is None:
            rng = DeterministicRng(self.set_seed(set_index))
            self._set_rngs[set_index] = rng
        return rng

    def set_seed(self, set_index: int) -> int:
        """The seed of :meth:`set_rng`'s stream for one set.

        Replay kernels seed fresh streams with it, leaving the instance's
        own streams untouched.
        """
        if self._rng_seed is None:
            raise SimulationError(
                f"policy {self.name} requested a set RNG without a seed"
            )
        return derive_seed(self._rng_seed, "set", set_index)

    def bind(self, geometry: CacheGeometry) -> None:
        """Size the policy's metadata to ``geometry``.

        Subclasses must call ``super().bind(geometry)`` first and may then
        allocate per-set/per-way state. Binding twice is a bug.
        """
        if self.geometry is not None:
            raise SimulationError(f"policy {self.name} bound twice")
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways

    def attach(self, llc) -> None:
        """Give the policy a back-reference to its LLC (set by the LLC)."""
        self.llc = llc

    @abstractmethod
    def on_fill(self, set_index: int, way: int, block: int, pc: int, core: int, is_write: bool) -> None:
        """A demand miss installed ``block`` into ``way`` of ``set_index``."""

    @abstractmethod
    def on_hit(self, set_index: int, way: int, block: int, pc: int, core: int, is_write: bool) -> None:
        """A demand access hit ``block`` resident in ``way``."""

    @abstractmethod
    def select_victim(self, set_index: int) -> int:
        """Choose the way to evict from a *full* set."""

    def on_evict(self, set_index: int, way: int, block: int) -> None:
        """The block in ``way`` was evicted (override if state must react)."""

    def rank_victims(self, set_index: int) -> list:
        """Every way of the set in eviction-preference order (best first).

        ``rank_victims(s)[0]`` must equal what :meth:`select_victim` would
        choose, including any metadata side effects selection implies (RRIP
        aging). The sharing-aware wrapper uses the full ranking to skip
        protected blocks while otherwise deferring to the base policy — this
        method is what makes the oracle "generic" in the paper's sense.
        """
        raise NotImplementedError(
            f"policy {self.name} does not support ranked victim selection"
        )

    def preferred_victim(self, set_index: int, blocked) -> tuple:
        """``(way, first)``: the best victim not flagged in ``blocked``.

        ``first`` is the unconstrained top choice (``rank_victims(s)[0]``);
        ``way`` is the first way in preference order with
        ``blocked[way] <= 0``, or ``-1`` when every way is blocked. The
        default walks :meth:`rank_victims` — keeping its contractual side
        effects — so behaviour is identical for any ranked base; policies
        whose ranking is a pure sort (LRU) override this with a sort-free
        scan, which is what the eviction-heavy oracle replays hit.
        """
        order = self.rank_victims(set_index)
        first = order[0]
        for way in order:
            if blocked[way] <= 0:
                return way, first
        return -1, first

    def introspect(self) -> dict:
        """JSON-able snapshot of the policy's internal state.

        The probe layer (:mod:`repro.sim.probes`) folds this into its
        machine-readable reports. The base contract: keys are plain strings,
        values JSON-serialisable, and reading the snapshot never mutates
        replacement state. Subclasses extend the dict with their own
        internals (PSEL value, SHCT histogram, RRPV bits, ...).
        """
        return {"policy": self.name}

    def __repr__(self) -> str:
        bound = self.geometry.describe() if self.geometry else "unbound"
        return f"{type(self).__name__}({bound})"
