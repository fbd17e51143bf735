"""Exact set-partitioned replay for per-set replacement policies.

The scalar :class:`repro.cache.llc.SharedLlc` walk is exact for every
policy but pays full model overhead per access. This module removes that
overhead for every policy whose sets are **independent state machines**,
plain LRU included: recency stamps, RRPV vectors, NRU reference bits,
per-way next-use values — all of it is per-set state, read and written
only by accesses mapping to that set. The replay therefore decomposes
exactly:

1. **Partition** — bucket the recorded stream by set index in one
   vectorized pass (stable ``argsort`` over ``block & (num_sets-1)``),
   keeping each access's global position.
2. **Lockstep kernel** — every set advances one access per numpy step
   over a set-by-way state matrix (:func:`_lockstep`), with one victim
   key per policy family: recency stamps for LRU/LIP/BIP, RRPVs with
   closed-form aging for SRRIP/BRRIP, NRU reference bits, next-use
   values for OPT, a drawn way for Random. Stochastic policies draw from
   per-set streams (:meth:`repro.policies.base.ReplacementPolicy.set_rng`),
   so a set's draws depend only on its own fills; the kernel pre-draws
   each set's sequence from a fresh stream seeded the same way
   (:func:`_draw_table`) and consumes it through a per-row counter. The
   sharing oracle over a recency or RRIP base rides the same kernel with
   its annotation as one more column.
3. **Two-phase dueling** (DIP/DRRIP, and the oracle over them) — sets
   couple only through the PSEL counter, and only leader sets write it.
   Replay the leaders of both roles first (their behaviour is
   role-based, never PSEL-dependent), merge their miss positions into the
   exact PSEL time-series, then replay followers reading the
   reconstructed winner flag at each access.

A numpy step costs the same whatever the number of rows it advances, so
the kernel pays per step, and a replay takes as many steps as its longest
set has accesses: the kernel gains with the set count (DESIGN.md decision
9 gives the measured crossover against a Python walk).

Policies with genuinely global state — SHiP's SHCT is trained by every
set's fills, hits, and evictions — have no exact decomposition and stay on
the scalar tier; DESIGN.md decision 9 has the argument.

Observer-carrying replays additionally record the residency skeleton
(fills and the residencies they evict) at every step and stitch it back
into global fill order (:class:`ReplayWalk`), and one vectorized metadata
pass, for any core id, fills its per-residency columns. An observer that
reduces those columns itself (the sharing classifier,
:meth:`repro.cache.llc.ResidencyObserver.consume_walk`) takes the walk;
for the rest the observer replay emits exactly the callback sequence the
scalar model would have produced.

Which policies run here is decided by the replay planner
(:func:`repro.sim.plan.plan_replay`), whose
:data:`repro.sim.plan.REPLAY_KERNELS` table also names the kernel family
each class steps through; :func:`repro.sim.multipass.run_policy_on_stream`
carries the plan out, for single replays and for every grid cell that
:mod:`repro.sim.gridpath`'s rank-mode replay (:func:`lru_ranks`) does not
serve.
"""

from array import array
from time import perf_counter
from typing import List, NamedTuple, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng, randrange_words
from repro.policies.base import REPLAY_DUELING, REPLAY_SET, ReplacementPolicy
from repro.policies.dip import BipPolicy, DuelingController
from repro.policies.lru import LipPolicy
from repro.policies.opt import next_positions
from repro.policies.rrip import BrripPolicy
from repro.sim.plan import (
    FAMILY_NRU,
    FAMILY_OPT,
    FAMILY_RANDOM,
    FAMILY_RECENCY,
    FAMILY_RRIP,
    REPLAY_KERNELS,
    plan_replay,
)
from repro.sim.results import LlcSimResult

_COLD = np.iinfo(np.int64).max
"""An empty way's victim key: above every live key of every family, so a
row's first largest key is its lowest empty way while it has one."""

_NO_KEY = np.iinfo(np.int64).min
"""A protected way's victim key while an exemption looks past it."""


# ----------------------------------------------------------------------
# Phase 1: stream partition
# ----------------------------------------------------------------------

_SUCCESSORS: "WeakKeyDictionary" = WeakKeyDictionary()


def stream_successors(stream: LlcStream) -> np.ndarray:
    """The stream's :func:`repro.policies.opt.next_positions` column.

    The kernel's links and OPT's next-use column read it. It depends
    only on the block sequence, so it is memoized weakly, at 4 bytes per
    access, and dies with its stream.
    """
    successors = _SUCCESSORS.get(stream)
    if successors is None:
        successors = _SUCCESSORS[stream] = next_positions(stream.blocks)
    return successors


class StreamPartition:
    """The recorded stream bucketed by set index.

    ``order_np[starts[s]:starts[s+1]]`` holds the global stream positions
    of set ``s``'s accesses in stream order, and ``successors`` is the
    stream's successor column.
    """

    __slots__ = ("num_sets", "starts", "order_np", "successors")


def partition_stream(blocks, num_sets: int, successors=None,
                     profile=None) -> StreamPartition:
    """Bucket ``blocks`` by ``block & (num_sets - 1)`` preserving order.

    One stable ``argsort`` over the set-index column, narrowed to the
    smallest unsigned type that holds it so numpy radix-sorts it.
    ``successors`` is the blocks' successor column, computed here when
    None.
    """
    part = StreamPartition()
    part.num_sets = num_sets
    part.successors = (next_positions(blocks) if successors is None
                       else successors)
    start = perf_counter()
    if isinstance(blocks, array) and blocks.typecode == "q":
        column = np.frombuffer(blocks, dtype=np.int64)
    else:
        column = np.asarray(blocks, dtype=np.int64)
    sets = column & (num_sets - 1)
    part.order_np = np.argsort(
        sets.astype(np.min_scalar_type(num_sets - 1)), kind="stable")
    part.starts = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(sets, minlength=num_sets), out=part.starts[1:])
    if profile is not None:
        profile["partition"] = perf_counter() - start
    return part


# ----------------------------------------------------------------------
# Phase 2: the lockstep kernel
# ----------------------------------------------------------------------

class _Lanes(NamedTuple):
    """Some sets of a partition laid out for lockstep stepping.

    Row ``r`` replays set ``sets[r]``, longest set first, so the rows
    still active at step ``i`` are a prefix of the rows and no lane is
    ever padded. Slots are ordered by (step, row): step ``i`` is
    ``bounds[i]:bounds[i + 1]``, and ``pos`` gives each slot's global
    stream position. ``link`` gives the slot of the same block's next
    access, in the same row since lanes cover whole sets, or
    ``len(pos)`` for a block's last access.
    """

    sets: np.ndarray
    pos: np.ndarray
    link: np.ndarray
    bounds: List[int]


def _lanes(part: StreamPartition, sets) -> _Lanes:
    """Lay out the accesses of ``sets`` (skipping empty ones) in lockstep."""
    lens = np.diff(part.starts)[sets]
    rank = np.argsort(-lens, kind="stable")
    rank = rank[lens[rank] > 0]
    sets, lens = sets[rank], lens[rank]
    # Rows active at each step; each column is one gather by partition
    # index, and a successor of -1 reads the slot past the lanes.
    active = len(lens) - np.cumsum(np.bincount(lens))[:-1]
    bounds = np.concatenate(([0], np.cumsum(active)))
    index = np.arange(bounds[-1])
    src = part.starts[sets][index - np.repeat(bounds[:-1], active)] + \
        np.repeat(np.arange(len(active)), active)
    pos = part.order_np[src]
    slot = np.full(len(part.order_np) + 1, len(pos), dtype=np.intp)
    slot[pos] = index
    return _Lanes(sets, pos, slot[part.successors[pos]], bounds.tolist())


def _draw_table(seeds, counts, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's first ``randrange(n)`` draws, drawn in bulk.

    Returns ``(flat, first)``: ``flat[first[r] + j]`` for ``j <
    counts[r]`` is the ``j``-th value that successive
    ``DeterministicRng(seeds[r]).randrange(n)`` calls return.
    One ``getrandbits`` call per row draws its 32-bit outputs, joined
    into one buffer, and :func:`repro.common.rng.randrange_words` filters
    them all at once (``tests/sim/test_setpath.py`` pins the sequence).
    """
    first = np.zeros(len(counts), dtype=np.int64)
    rows = np.flatnonzero(counts)
    need = np.asarray(counts, dtype=np.int64)[rows]
    flat = np.zeros(0, dtype=np.int64)
    if rows.size and n.bit_length() <= 32:
        # An output is kept with probability above one half, so a row
        # runs short of this many about once in 10^8 rows.
        words = 2 * need + 8 * np.sqrt(need).astype(np.int64) + 32
        drawn, kept = randrange_words(np.frombuffer(b"".join(
            DeterministicRng(seeds[r]).getrandbits(32 * w).to_bytes(
                4 * w, "little")
            for r, w in zip(rows.tolist(), words.tolist())
        ), dtype="<u4"), n)
        flat = drawn[kept].astype(np.int64)
        got = np.add.reduceat(kept, np.cumsum(words) - words, dtype=np.int64)
        first[rows] = np.cumsum(got) - got
        rows, need = rows[got < need], need[got < need]
    for r, m in zip(rows.tolist(), need.tolist()):
        rng = DeterministicRng(seeds[r])
        first[r] = len(flat)
        flat = np.concatenate((flat, [rng.randrange(n) for __ in range(m)]))
    return flat, first


def _lockstep(lanes: _Lanes, ways: int, family: str, rmax: int = 0,
              lip: bool = False, use_b=None, draws=None, next_use=None,
              hints=None, cores=None, mode: str = "both",
              release: str = "never", fills=None, trail=None, ranks=None):
    """Step every row of ``lanes`` one access per numpy step.

    State is ``(rows, ways)`` victim keys addressed through flat ``row *
    ways + way`` cells: each miss takes its row's first largest key. An
    access reads only the cell its block's previous access ended in,
    forwarded along the lane links (a never-filled cell for a first
    access), and hits iff that cell still holds its block, which is iff
    the cell's tag, the link of its block's latest access, is this slot.
    The key per ``family``:

    * ``recency`` — minus the step on a hit or MRU fill (a step touches at
      most one way per row, so that is recency order). A fill at the LRU
      end (LIP always, BIP on all but a 1-in-``n`` draw) takes its row's
      next LRU-end count, above every MRU key and every earlier LRU-end
      fill: the order of the model's ``min(stamps) - 1``.
    * ``rrip`` — the RRPV (``rmax`` the largest) less a per-row offset;
      before a full row picks its victim, the scalar +1-all rounds that
      run until some way reaches ``rmax`` are one closed-form delta
      added to the offset. Fills insert at ``rmax - 1``, or BRRIP-style
      at ``rmax`` on all but a 1-in-``n`` draw.
    * ``nru`` — ``1 - reference bit``; a touch that sets every bit of the
      row clears the others.
    * ``opt`` — the next-use position of the way's last access.
    * ``random`` — none: a full row's victim is its next draw.

    Empty ways hold :data:`_COLD`, never offset, so a row with one fills
    its lowest empty way with no victim choice and no exemption, and
    RRPV aging stops at ``rmax``. ``use_b`` (per slot) marks the fills
    that apply constituent B, the bimodal insertion, and draw; ``draws``
    is a :func:`_draw_table` of each row's pre-drawn values, consumed
    through a per-row counter. ``next_use``, ``hints`` and ``cores`` are
    per-slot columns. ``hints`` makes the kernel the sharing oracle
    wrapper with ``mode`` and ``release``: a hinted fill is promoted as a
    hit would be, a miss skips protected ways, and cross-core hits
    release budgets, counted in the object model's decision order.
    ``fills``, a list, receives every step's miss positions; ``trail``, a
    list, receives this call's residency skeleton for
    :func:`_assemble_walk`, numbering its residencies after those of the
    calls already on it. ``ranks``, indexed by stream position, receives
    each hit's count of live ways in its row with a more recent key, its
    stack distance under exact LRU. Returns ``(hits, protected_fills,
    exemptions, releases)``.
    """
    __, pos, link, bounds = lanes
    size = len(lanes.sets) * ways
    key = np.full((len(lanes.sets), ways), _COLD, dtype=np.int64)
    key_at = key.reshape(-1)
    # Cell ``size`` is never filled: every first access reads it.
    tag_at = np.full(size + 1, -1, dtype=np.intp)
    at = np.full(len(pos) + 1, size, dtype=np.intp)
    slots = np.arange(len(pos))
    lru_end = np.zeros(len(lanes.sets), dtype=np.int64)
    offset = np.zeros(len(lanes.sets), dtype=np.int64)
    if hints is not None:
        budget = np.zeros_like(key)
        budget_at = budget.reshape(-1)
        fill_core_at = np.zeros_like(key_at)
    if draws is not None:
        flat, first = draws
        used = np.zeros(len(lanes.sets), dtype=np.int64)
    if trail is not None:
        rid_at = np.full(size, -1, dtype=np.int64)
        skeleton = ([], [], [], [])
        counter = sum(len(record[0]) for record in trail)
    exempting = hints is not None and mode != "insert-promote"
    promoting = hints is not None and mode != "victim-exempt"
    releasing = hints is not None and release != "never"
    rrip = family == FAMILY_RRIP
    hits = protected = exempted = released = 0

    def draw(rows):
        values = flat[first[rows] + used[rows]]
        used[rows] += 1
        return values

    def touch(rows, cells):
        key_at[cells] = 0
        saturated = ~key.take(rows, axis=0).any(axis=1)
        if saturated.any():
            key[rows[saturated]] = 1
            key_at[cells[saturated]] = 0

    for i in range(len(bounds) - 1):
        lo, hi = bounds[i], bounds[i + 1]
        cell = at[lo:hi]
        hit = tag_at[cell] == slots[lo:hi]
        top = -i if family == FAMILY_RECENCY else 0
        rows = hit.nonzero()[0]
        if rows.size:
            cells = cell[rows]
            hits += rows.size
            if ranks is not None:
                ranks[pos[lo:hi][rows]] = (
                    key.take(rows, axis=0) < key_at[cells][:, None]
                ).sum(axis=1)
            if family == FAMILY_OPT:
                key_at[cells] = next_use[lo:hi][rows]
            elif family == FAMILY_NRU:
                touch(rows, cells)
            elif rrip:
                key_at[cells] = -offset[rows]
            elif family != FAMILY_RANDOM:
                key_at[cells] = top
            if releasing:
                shared = (budget_at[cells] > 0) & (
                    cores[lo:hi][rows] != fill_core_at[cells])
                gone = cells[shared]
                if release == "budget":
                    budget_at[gone] -= 1
                    released += (budget_at[gone] == 0).sum()
                else:
                    budget_at[gone] = 0
                    released += gone.size
            if trail is not None:
                skeleton[2].append(pos[lo:hi][rows])
                skeleton[3].append(rid_at[cells])
        if rows.size < hi - lo:
            rows = (~hit).nonzero()[0]
            if fills is not None:
                fills.append(pos[lo:hi][rows])
            sub = key.take(rows, axis=0)
            way = sub.argmax(axis=1)
            cells = rows * ways + way
            if rrip:
                # The first choice's RRPV, clamped without touching _COLD.
                limit = rmax - offset[rows]
                offset[rows] += limit - np.minimum(key_at[cells], limit)
            elif family == FAMILY_RANDOM:
                full = sub[:, -1] != _COLD
                if full.any():
                    way[full] = draw(rows[full])
                    cells = rows * ways + way
            if exempting:
                # Only a protected first choice can move. A recency or
                # RRIP base takes its row's first largest key, so an
                # unprotected first choice is also the first largest
                # unprotected key. (NRU, Random and OPT bases have no
                # oracle plan.)
                look = (budget_at[cells] > 0).nonzero()[0]
                if look.size:
                    guard = budget.take(rows[look], axis=0) > 0
                    best = np.where(guard, _NO_KEY, sub[look]).argmax(axis=1)
                    # Every way protected: the base's first choice stands.
                    moved = ~guard[np.arange(look.size), best]
                    exempted += moved.sum()
                    way[look[moved]] = best[moved]
                    cells = rows * ways + way
            if trail is not None:
                skeleton[0].append(pos[lo:hi][rows])
                skeleton[1].append(rid_at[cells])
                rid_at[cells] = np.arange(counter, counter + rows.size)
                counter += rows.size
            cell[rows] = cells
            distant = None
            if lip:
                distant = np.ones(rows.size, dtype=bool)
            elif use_b is not None:
                chosen = use_b[lo:hi][rows]
                if chosen.any():
                    distant = np.zeros(rows.size, dtype=bool)
                    distant[chosen] = draw(rows[chosen]) != 0
            if family == FAMILY_RECENCY:
                fill = top
                if distant is not None:
                    far = rows[distant]
                    lru_end[far] += 1
                    fill = np.full(rows.size, top)
                    fill[distant] = lru_end[far]
            elif rrip:
                top = -offset[rows]
                fill = top + (rmax - 1 if distant is None
                              else rmax - 1 + distant)
            elif family == FAMILY_OPT:
                fill = next_use[lo:hi][rows]
            else:
                fill = 0
            if hints is not None:
                hint = hints[lo:hi][rows]
                budget_at[cells] = hint
                fill_core_at[cells] = cores[lo:hi][rows]
                hinted = hint > 0
                protected += hinted.sum()
                if promoting:
                    fill = np.where(hinted, top, fill)
            if family == FAMILY_NRU:
                touch(rows, cells)
            else:
                key_at[cells] = fill
        tag_at[cell] = link[lo:hi]
        at[link[lo:hi]] = cell
    if trail is not None:
        live = (rid_at >= 0).nonzero()[0]
        trail.append((
            *(np.concatenate(part) if part else np.zeros(0, dtype=np.int64)
              for part in skeleton),
            lanes.sets[live // ways], live % ways, rid_at[live],
        ))
    return hits, int(protected), int(exempted), int(released)


# ----------------------------------------------------------------------
# Phase 3: two-phase dueling (PSEL time-series reconstruction)
# ----------------------------------------------------------------------

def _psel_steps(fills, is_b, duel):
    """Merge leader miss positions into the exact PSEL time-series.

    ``fills`` holds the global positions of every leader miss, ``is_b``
    whether each was a B-leader's. Returns ``(positions, values)``: the
    sorted positions (the only events that move PSEL) and the PSEL value
    after each event (``values[0]`` is the initial state, so it has one
    more entry than ``positions``). The saturating walk itself stays
    scalar — saturation breaks ``cumsum`` — but the event merge
    vectorizes.
    """
    # Fill positions are unique (one access per position), so the
    # unstable default sort is deterministic here.
    order = np.argsort(fills)
    psel = duel.psel
    psel_max = duel.psel_max
    values = [psel]
    for b in is_b[order].tolist():
        if not b:
            if psel < psel_max:
                psel += 1
        elif psel > 0:
            psel -= 1
        values.append(psel)
    return fills[order], values


def _kernel(stream: LlcStream, geometry: CacheGeometry, policy,
            trail: Optional[list]):
    """``(base, tier, run)``: the lockstep kernel set up for ``policy``.

    ``run(lanes, use_b=None, fills=None)`` steps ``lanes`` under the
    policy, or under the base of an oracle wrapper, the one planned policy
    without a :data:`REPLAY_KERNELS` row, with its annotation as the hint
    column. A plain policy is bound here; a wrapper has no walk and is
    never bound, nor is its base. Draws come from fresh per-set streams
    seeded as :meth:`ReplacementPolicy.set_rng` seeds them, so no
    instance's own streams advance.
    """
    wrapped = type(policy) not in REPLAY_KERNELS
    base = policy.base if wrapped else policy
    tier, family = REPLAY_KERNELS[type(base)]
    if wrapped and trail is not None:
        raise SimulationError(f"no set-tier walk kernel for {policy.name!r}")
    if not wrapped:
        policy.bind(geometry)
    ways = geometry.ways
    mask = geometry.num_sets - 1
    cores, __, blocks, ___ = stream.numpy_columns()
    columns = {}
    options = {}
    if family == FAMILY_OPT:
        next_use = np.asarray(policy.next_use, dtype=np.int64)
        if len(next_use) != len(blocks):
            raise SimulationError(
                f"OPT replayed against a mismatched stream: next-use column "
                f"has {len(next_use)} entries for {len(blocks)} accesses"
            )
        columns["next_use"] = next_use
    if wrapped:
        # budgets[i + 1] is access i's hint.
        columns["hints"] = np.asarray(
            policy.hint_source.budgets, dtype=np.int64)[1:]
        columns["cores"] = cores
        options = {"mode": policy.mode, "release": policy.release}
    rmax = base.rrpv_max if family == FAMILY_RRIP else 0
    lip = type(base) is LipPolicy

    def run(lanes, use_b=None, fills=None):
        draws = None
        if use_b is not None or family == FAMILY_RANDOM:
            drawing = blocks[lanes.pos if use_b is None else lanes.pos[use_b]]
            counts = np.bincount(drawing & mask, minlength=mask + 1)
            draws = _draw_table(
                [base.set_seed(s) for s in lanes.sets.tolist()],
                counts[lanes.sets],
                ways if use_b is None else base.throttle,
            )
        return _lockstep(
            lanes, ways, family, rmax, lip, use_b, draws, fills=fills,
            trail=trail, **options,
            **{name: column[lanes.pos] for name, column in columns.items()},
        )

    return base, tier, run


def _leader_pass(part: StreamPartition, blocks, base, run):
    """Replay the leader sets of both roles in one call.

    Returns ``(counts, roles, duel, positions, values)``: the kernel's
    counters over the leaders, every set's role, the dueling controller
    and the PSEL series of :func:`_psel_steps`.
    """
    duel = base.new_duel(part.num_sets)
    roles = np.array([duel.role(s) for s in range(part.num_sets)])
    is_b = roles == DuelingController.LEADER_B
    mask = part.num_sets - 1
    lanes = _lanes(part, np.flatnonzero(roles != DuelingController.FOLLOWER))
    fills: List[np.ndarray] = []
    counts = run(lanes, is_b[blocks[lanes.pos] & mask], fills)
    fills = np.concatenate(fills) if fills else np.zeros(0, dtype=np.int64)
    return (counts, roles, duel,
            *_psel_steps(fills, is_b[blocks[fills] & mask], duel))


def _run_partitioned(stream: LlcStream, geometry: CacheGeometry, policy,
                     trail: Optional[list], profile=None) -> int:
    """Partition ``stream`` and replay every set of ``policy`` (see
    :func:`_kernel`); returns hits.

    Count mode when ``trail`` is None. An oracle wrapper gets the study
    counters the object model would have counted.
    """
    part = partition_stream(stream.blocks, geometry.num_sets,
                            stream_successors(stream), profile=profile)
    start = perf_counter()
    base, tier, run = _kernel(stream, geometry, policy, trail)
    if tier == REPLAY_DUELING:
        counts, roles, duel, positions, values = _leader_pass(
            part, stream.numpy_columns()[2], base, run)
        psel_start = perf_counter()
        lanes = _lanes(part, np.flatnonzero(
            roles == DuelingController.FOLLOWER))
        # A follower fill reads the PSEL decision after the leader misses
        # strictly before it; its own miss never moves PSEL.
        before = np.zeros(len(stream) + 1, dtype=np.int64)
        before[positions + 1] = 1
        np.cumsum(before, out=before)
        flags = np.asarray(values) >= duel.threshold
        use_b = flags[before[lanes.pos]]
        if profile is not None:
            profile["psel_series"] = perf_counter() - psel_start
        counts = np.add(counts, run(lanes, use_b))
    else:
        lanes = _lanes(part, np.arange(part.num_sets))
        bimodal = type(base) in (BipPolicy, BrripPolicy)
        counts = run(lanes, np.ones(len(lanes.pos), dtype=bool)
                     if bimodal else None)
    hits, protected, exempted, released = (int(c) for c in counts)
    if base is not policy:
        policy.protected_fills += protected
        policy.exemptions_applied += exempted
        policy.releases += released
    if profile is not None:
        profile["set_kernels"] = perf_counter() - start
    return hits


def lru_ranks(blocks, num_sets: int, ways: int) -> np.ndarray:
    """Capped per-set LRU stack distance of every access: rank mode.

    One exact LRU lockstep replay at ``ways`` ways, in which every miss
    gets the cap ``ways``. By Mattson inclusion (Mattson et al., 1970),
    ``hit iff ranks[i] < w`` is the exact outcome for every ``w <= ways``
    at the same ``num_sets``.
    """
    part = partition_stream(blocks, num_sets)
    ranks = np.full(len(part.order_np), ways, dtype=np.int64)
    _lockstep(_lanes(part, np.arange(num_sets)), ways, FAMILY_RECENCY,
              ranks=ranks)
    return ranks


def reconstruct_psel_series(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy,
) -> Tuple[List[int], List[int]]:
    """The exact PSEL time-series of a dueling replay, from leaders alone.

    ``policy`` is an unbound :class:`DipPolicy`/:class:`DrripPolicy`
    instance. Returns ``(positions, values)``: the sorted global stream
    positions of every leader miss, and the PSEL value after each —
    ``values[0]`` is the initial PSEL, so ``len(values) ==
    len(positions) + 1``. ``values[bisect_right(positions, p)]`` is the
    PSEL the scalar model holds after processing the access at position
    ``p`` (the differential suite checks this against a scalar PSEL probe).
    """
    if plan_replay(policy, (), stream, True, True).tier != REPLAY_DUELING:
        raise SimulationError(
            f"policy {getattr(policy, 'name', policy)!r} is not a dueling "
            f"policy; no PSEL series exists"
        )
    part = partition_stream(stream.blocks, geometry.num_sets,
                            stream_successors(stream))
    base, __, run = _kernel(stream, geometry, policy, None)
    positions, values = _leader_pass(
        part, stream.numpy_columns()[2], base, run)[3:]
    return positions.tolist(), values


# ----------------------------------------------------------------------
# Phase 4: the walk — global fill order, residency metadata, observers
# ----------------------------------------------------------------------

class ReplayWalk:
    """Everything a scalar replay's observers see, rebuilt offline.

    Every column is an int64 numpy array, except that the masks are
    object arrays of Python ints when a core id exceeds
    :data:`_MAX_INT64_CORE`. ``rids`` holds, per access, the residency id
    (global fill order, 0-based) it lands in; an access is a miss iff it
    is its residency's fill.

    Per-residency columns (length ``residencies``, fill order): block, fill
    access index, hit and other-hit counts, core/write masks.
    ``evicted_rid[j]`` is the residency evicted by fill ``j`` (``-1`` for
    fills into empty frames), and ``live_rids`` lists the residencies
    still resident at end-of-stream in the (set, way) order the scalar
    flush visits them.
    """

    __slots__ = (
        "n", "set_mask", "hits", "misses", "rids", "res_block", "res_fill",
        "res_hits", "res_other_hits", "res_core_mask", "res_write_mask",
        "evicted_rid", "live_rids",
    )

    @property
    def residencies(self) -> int:
        """Number of residencies (= fills = misses)."""
        return len(self.res_block)


def _assemble_walk(trail: list, stream: LlcStream,
                   geometry: CacheGeometry) -> ReplayWalk:
    """Stitch the kernel calls' skeletons into a global fill-ordered walk.

    Residency ids on the trail number fills in the order the kernel
    calls made them; the sort by fill position remaps them to global
    fill order. The trail is emptied, and every assembly array dies with
    this call, before the metadata pass allocates its own.
    """
    walk = ReplayWalk()
    n = len(stream)
    fill, evicted, hit_pos, hit_rid, live_sets, live_ways, live_ids = (
        np.concatenate(column) for column in zip(*trail))
    trail.clear()
    count = len(fill)
    perm = np.argsort(fill)  # fill positions are unique
    inv = np.empty(count, dtype=np.int64)
    inv[perm] = np.arange(count, dtype=np.int64)
    walk.res_fill = fill[perm]
    walk.res_block = stream.numpy_columns()[2][walk.res_fill]
    walk.evicted_rid = np.where(
        evicted >= 0, inv[np.maximum(evicted, 0)], np.int64(-1))[perm]
    walk.rids = np.zeros(n, dtype=np.int64)
    walk.rids[fill] = inv
    walk.rids[hit_pos] = inv[hit_rid]
    # The scalar flush visits sets in index order and ways in way order.
    walk.live_rids = inv[live_ids[np.lexsort((live_ways, live_sets))]]
    walk.n = n
    walk.set_mask = geometry.num_sets - 1
    walk.hits = n - count
    walk.misses = count
    return walk


_MAX_INT64_CORE = 62
"""Highest core id whose mask bit, ``1 << core``, fits an int64."""


def _reconstruct_numpy(walk: ReplayWalk, stream: LlcStream) -> None:
    """Vectorized metadata pass.

    Segmented reductions over the (stable) rid-sorted stream columns:
    ``bincount`` for hit and other-hit counts, ``bitwise_or.reduceat`` for
    the core and write masks. The masks are int64 while every core id is
    at most :data:`_MAX_INT64_CORE` (the paper's machine has 8 cores) and
    Python ints in object arrays above that, which the same shifts,
    reductions and ``where`` serve unchanged.
    """
    count = walk.residencies
    if count == 0:
        empty = np.zeros(0, dtype=np.int64)
        walk.res_hits = walk.res_other_hits = empty
        walk.res_core_mask = walk.res_write_mask = empty
        return
    cores_np, __, ___, writes_np = stream.numpy_columns()
    mask_type = np.int64 if int(cores_np.max()) <= _MAX_INT64_CORE else object
    rids_np = walk.rids
    hit_mask = np.ones(walk.n, dtype=bool)
    hit_mask[walk.res_fill] = False

    fill_core = cores_np[walk.res_fill].astype(np.int64)
    core_bits = np.left_shift(np.array(1, dtype=mask_type),
                              cores_np.astype(mask_type))

    walk.res_hits = np.bincount(rids_np[hit_mask], minlength=count)
    other = hit_mask & (cores_np.astype(np.int64) != fill_core[rids_np])
    walk.res_other_hits = np.bincount(rids_np[other], minlength=count)

    order = np.argsort(rids_np, kind="stable")
    counts = np.bincount(rids_np, minlength=count)
    starts = np.zeros(count, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sorted_bits = core_bits[order]
    walk.res_core_mask = np.bitwise_or.reduceat(sorted_bits, starts)
    write_bits = np.where(writes_np[order] != 0, sorted_bits, 0)
    walk.res_write_mask = np.bitwise_or.reduceat(write_bits, starts)


def _replay_observers(
    walk: ReplayWalk, stream: LlcStream, observers: Tuple
) -> None:
    """Emit the exact callback sequence the scalar replay would produce."""
    pcs = stream.pcs
    cores = stream.cores
    # Python lists: a callback receives plain ints, and list indexing is
    # the cheapest per-residency read.
    res_block = walk.res_block.tolist()
    res_fill = walk.res_fill.tolist()
    res_hits = walk.res_hits.tolist()
    res_other = walk.res_other_hits.tolist()
    res_cmask = walk.res_core_mask.tolist()
    res_wmask = walk.res_write_mask.tolist()
    set_mask = walk.set_mask

    def emit_ended(rid: int, end_ordinal: int, forced: bool) -> None:
        block = res_block[rid]
        fill = res_fill[rid]
        for observer in observers:
            observer.residency_ended(
                block,
                block & set_mask,
                fill + 1,
                end_ordinal,
                pcs[fill],
                cores[fill],
                res_cmask[rid],
                res_wmask[rid],
                res_hits[rid],
                res_other[rid],
                forced,
            )

    for rid, (fill, victim_rid) in enumerate(
            zip(res_fill, walk.evicted_rid.tolist())):
        if victim_rid >= 0:
            # The scalar model ends the victim's residency before the fill
            # callbacks of the access that evicted it.
            emit_ended(victim_rid, fill + 1, False)
        block = res_block[rid]
        for observer in observers:
            observer.residency_started(
                block, block & set_mask, fill + 1, pcs[fill], cores[fill]
            )
    for rid in walk.live_rids.tolist():
        emit_ended(rid, walk.n, True)


def _setpath_tier(policy, stream: LlcStream) -> str:
    """The set or dueling tier the planner gives ``policy``, else raise."""
    tier = plan_replay(policy, (), stream, True, True).tier
    if tier not in (REPLAY_SET, REPLAY_DUELING):
        raise SimulationError(
            f"policy {getattr(policy, 'name', policy)!r} is not "
            f"setpath-eligible (tier {tier!r})"
        )
    return tier


def reconstruct_setpath_replay(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    profile=None,
) -> ReplayWalk:
    """Replay ``stream`` under ``policy`` rebuilding the full walk.

    ``policy`` must be an unbound setpath-eligible instance; it is bound
    here. ``profile``, when a dict, receives the wall times of the
    partition, the kernels, the assembly and the metadata pass
    (``reconstruct``).
    """
    _setpath_tier(policy, stream)
    trail: list = []
    _run_partitioned(stream, geometry, policy, trail, profile=profile)
    start = perf_counter()
    walk = _assemble_walk(trail, stream, geometry)
    if profile is not None:
        profile["assemble"] = perf_counter() - start
        start = perf_counter()
    _reconstruct_numpy(walk, stream)
    if profile is not None:
        profile["reconstruct"] = perf_counter() - start
    return walk


def replay_setpath(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    observers: Tuple = (),
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under an unbound per-set policy instance.

    Drop-in replacement for
    ``LlcOnlySimulator(geometry, policy, observers).run(stream)`` for
    setpath-eligible policies: same hit/miss/eviction counts, and every
    observer ends up with what the model's callbacks would have given it
    (equivalence-tested per policy). Each observer is first offered the
    rebuilt walk (:meth:`ResidencyObserver.consume_walk`); only those
    that decline receive the callback sequence, in the model's order.
    Without observers the replay is pure classification (no skeleton).
    ``profile``, when a dict, receives per-phase wall times
    (``partition``, ``set_kernels``, ``psel_series`` for dueling,
    ``assemble``/``reconstruct``/``observer_replay`` with observers).
    """
    start = perf_counter()
    tier = _setpath_tier(policy, stream)
    n = len(stream.blocks)
    if observers:
        walk = reconstruct_setpath_replay(
            stream, geometry, policy, profile=profile
        )
        phase_start = perf_counter()
        callbacks = tuple(o for o in observers if not o.consume_walk(walk))
        if callbacks:
            _replay_observers(walk, stream, callbacks)
        if profile is not None:
            profile["observer_replay"] = perf_counter() - phase_start
        hits, misses = walk.hits, walk.misses
    else:
        hits = _run_partitioned(stream, geometry, policy, None,
                                profile=profile)
        misses = n - hits
    return LlcSimResult(
        policy=policy.name,
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=misses,
        elapsed_sec=perf_counter() - start,
        tier=tier,
        backend="numpy",
    )
