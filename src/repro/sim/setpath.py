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
into global fill order (:class:`ReplayWalk`); a vectorized metadata pass
and the observer replay then emit exactly the callback sequence the
scalar model would have produced.

Which policies run here is decided by the replay planner
(:func:`repro.sim.plan.plan_replay`), whose
:data:`repro.sim.plan.REPLAY_KERNELS` table also names the kernel family
each class steps through; :func:`repro.sim.multipass.run_policy_on_stream`
carries the plan out.
"""

from array import array
from time import perf_counter
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng
from repro.policies.base import REPLAY_DUELING, REPLAY_SET, ReplacementPolicy
from repro.policies.dip import BipPolicy, DuelingController
from repro.policies.lru import LipPolicy
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

class StreamPartition:
    """The recorded stream bucketed by set index.

    ``blocks_np[starts[s]:starts[s+1]]`` is set ``s``'s access subsequence
    in stream order, and ``order_np`` holds each grouped access's global
    stream position.
    """

    __slots__ = ("num_sets", "starts", "order_np", "blocks_np")


def partition_stream(blocks, num_sets: int, profile=None) -> StreamPartition:
    """Bucket ``blocks`` by ``block & (num_sets - 1)`` preserving order.

    One stable ``argsort`` over the set-index column, narrowed to the
    smallest unsigned type that holds it so numpy radix-sorts it.
    """
    part = StreamPartition()
    part.num_sets = num_sets
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
    part.blocks_np = column[part.order_np]
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
    ``bounds[i]:bounds[i + 1]``, and ``blocks``/``pos`` give each slot's
    block and global stream position.
    """

    sets: np.ndarray
    blocks: np.ndarray
    pos: np.ndarray
    bounds: List[int]


def _lanes(part: StreamPartition, sets) -> _Lanes:
    """Lay out the accesses of ``sets`` (skipping empty ones) in lockstep."""
    lens = np.diff(part.starts)[sets]
    rank = np.argsort(-lens, kind="stable")
    rank = rank[lens[rank] > 0]
    sets, lens = sets[rank], lens[rank]
    step = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(step))))
    slot = bounds[step] + np.repeat(np.arange(len(lens)), lens)
    src = np.repeat(part.starts[sets], lens) + step
    blocks = np.empty(len(src), dtype=np.int64)
    blocks[slot] = part.blocks_np[src]
    pos = np.empty(len(src), dtype=np.int64)
    pos[slot] = part.order_np[src]
    return _Lanes(sets, blocks, pos, bounds.tolist())


def _draw_table(seeds, counts, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's first ``randrange(n)`` draws, drawn in bulk.

    Returns ``(flat, first)``: ``flat[first[r] + j]`` for ``j <
    counts[r]`` is the ``j``-th value that successive
    ``DeterministicRng(seeds[r]).randrange(n)`` calls return.
    ``randrange(n)`` takes the generator's next 32-bit output, keeps its
    top ``n.bit_length()`` bits and returns the first such value below
    ``n``; ``getrandbits(32 * w)`` returns the next ``w`` outputs, least
    significant first. So one bulk call per row, a shift and a filter
    give the same sequence (``tests/sim/test_setpath.py`` pins it).
    """
    first = np.zeros(len(counts), dtype=np.int64)
    rows = np.flatnonzero(counts)
    need = np.asarray(counts, dtype=np.int64)[rows]
    flat = np.zeros(0, dtype=np.int64)
    shift = 32 - n.bit_length()
    if rows.size and shift >= 0:
        # An output is kept with probability above one half, so a row
        # runs short of this many about once in 10^8 rows.
        words = 2 * need + 8 * np.sqrt(need).astype(np.int64) + 32
        drawn = np.frombuffer(b"".join(
            DeterministicRng(seeds[r]).getrandbits(32 * w).to_bytes(
                4 * w, "little")
            for r, w in zip(rows.tolist(), words.tolist())
        ), dtype="<u4") >> shift
        kept = drawn < n
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
              release: str = "never", fills=None, trail=None):
    """Step every row of ``lanes`` one access per numpy step.

    State is ``(rows, ways)`` matrices of resident blocks and victim keys,
    addressed through flat ``row * ways + way`` cells: each miss takes its
    row's first largest key. The key per ``family``:

    * ``recency`` — minus the step on a hit or MRU fill (a step touches at
      most one way per row, so that is recency order). A fill at the LRU
      end (LIP always, BIP on all but a 1-in-``n`` draw) takes its row's
      next LRU-end count, above every MRU key and every earlier LRU-end
      fill: the order of the model's ``min(stamps) - 1``.
    * ``rrip`` — the RRPV (``rmax`` the largest); before a full row picks
      its victim, the scalar +1-all rounds that run until some way
      reaches ``rmax`` are one closed-form delta. Fills insert at
      ``rmax - 1``, or BRRIP-style at ``rmax`` on all but a 1-in-``n``
      draw.
    * ``nru`` — ``1 - reference bit``; a touch that sets every bit of the
      row clears the others.
    * ``opt`` — the next-use position of the way's last access.
    * ``random`` — none: a full row's victim is its next draw.

    Empty ways hold :data:`_COLD`, so a row with one fills its lowest
    empty way with no victim choice and no exemption, and RRPV aging
    stops at ``rmax``. ``use_b`` (per slot) marks the fills that apply
    constituent B, the bimodal insertion, and draw; ``draws`` is a
    :func:`_draw_table` of each row's pre-drawn values, consumed through
    a per-row counter. ``next_use``, ``hints`` and ``cores`` are per-slot
    columns. ``hints`` makes the kernel the sharing oracle wrapper with
    ``mode`` and ``release``: a hinted fill is promoted as a hit would be,
    a miss skips protected ways, and cross-core hits release budgets,
    counted in the object model's decision order. ``fills``, a list,
    receives every step's miss positions; ``trail``, a list, receives
    this call's residency skeleton for :func:`_assemble_walk`, numbering
    its residencies after those of the calls already on it. Returns
    ``(hits, protected_fills, exemptions, releases)``.
    """
    blocks, pos, bounds = lanes.blocks, lanes.pos, lanes.bounds
    blk = np.full((len(lanes.sets), ways), -1, dtype=np.int64)
    key = np.full_like(blk, _COLD)
    blk_at, key_at = blk.reshape(-1), key.reshape(-1)
    lru_end = np.zeros(len(lanes.sets), dtype=np.int64)
    if hints is not None:
        budget = np.zeros_like(blk)
        budget_at = budget.reshape(-1)
        fill_core_at = np.zeros_like(blk_at)
    if draws is not None:
        flat, first = draws
        used = np.zeros(len(lanes.sets), dtype=np.int64)
    if trail is not None:
        rid_at = np.full_like(blk_at, -1)
        skeleton = ([], [], [], [])
        counter = sum(len(record[0]) for record in trail)
    exempting = hints is not None and mode != "insert-promote"
    promoting = hints is not None and mode != "victim-exempt"
    releasing = hints is not None and release != "never"
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
        b = blocks[lo:hi]
        top = -i if family == FAMILY_RECENCY else 0
        cells = np.flatnonzero(blk[:hi - lo] == b[:, None])
        rows = cells // ways
        miss = np.ones(hi - lo, dtype=bool)
        if cells.size:
            miss[rows] = False
            hits += cells.size
            if family == FAMILY_OPT:
                key_at[cells] = next_use[lo:hi][rows]
            elif family == FAMILY_NRU:
                touch(rows, cells)
            elif family != FAMILY_RANDOM:
                key_at[cells] = top
            if releasing:
                shared = (budget_at[cells] > 0) & (
                    cores[lo:hi][rows] != fill_core_at[cells])
                gone = cells[shared]
                if release == "budget":
                    budget_at[gone] -= 1
                    released += np.count_nonzero(budget_at[gone] == 0)
                else:
                    budget_at[gone] = 0
                    released += gone.size
            if trail is not None:
                skeleton[2].append(pos[lo:hi][rows])
                skeleton[3].append(rid_at[cells])
        rows = np.flatnonzero(miss)
        if not rows.size:
            continue
        if fills is not None:
            fills.append(pos[lo:hi][rows])
        sub = key.take(rows, axis=0)
        way = sub.argmax(axis=1)
        cells = rows * ways + way
        if family == FAMILY_RRIP:
            age = rmax - np.minimum(key_at[cells], rmax)
            aged = np.flatnonzero(age)
            if aged.size:
                key[rows[aged]] += age[aged, None]
        elif family == FAMILY_RANDOM:
            full = sub[:, -1] != _COLD
            if full.any():
                way[full] = draw(rows[full])
                cells = rows * ways + way
        if exempting:
            guard = budget.take(rows, axis=0) > 0
            if guard.any():
                best = np.where(guard, _NO_KEY, sub).argmax(axis=1)
                # Every way protected: the base's first choice stands.
                best = np.where(budget_at[rows * ways + best] > 0, way, best)
                exempted += np.count_nonzero(best != way)
                way = best
                cells = rows * ways + way
        if trail is not None:
            skeleton[0].append(pos[lo:hi][rows])
            skeleton[1].append(rid_at[cells])
            rid_at[cells] = np.arange(counter, counter + rows.size)
            counter += rows.size
        blk_at[cells] = b[rows]
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
        elif family == FAMILY_RRIP:
            fill = rmax - 1 if distant is None else rmax - 1 + distant
        elif family == FAMILY_OPT:
            fill = next_use[lo:hi][rows]
        else:
            fill = 0
        if hints is not None:
            hint = hints[lo:hi][rows]
            budget_at[cells] = hint
            fill_core_at[cells] = cores[lo:hi][rows]
            hinted = hint > 0
            protected += np.count_nonzero(hinted)
            if promoting:
                fill = np.where(hinted, top, fill)
        if family == FAMILY_NRU:
            touch(rows, cells)
        else:
            key_at[cells] = fill
    if trail is not None:
        live = np.flatnonzero(rid_at >= 0)
        trail.append((
            *(np.concatenate(part) if part else np.zeros(0, dtype=np.int64)
              for part in skeleton),
            lanes.sets[live // ways], live % ways, rid_at[live],
        ))
    return hits, int(protected), int(exempted), int(released)


def _count_rrip_sync_stacked(
    part: StreamPartition, ways: int, configs
) -> List[int]:
    """Stacked synchronous SRRIP kernel: every parameter variant at once.

    ``configs`` is a sequence of ``(rmax, insertion_rrpv)`` pairs — one per
    grid variant. State generalizes :func:`_lockstep`'s SRRIP recurrence,
    over ``-1``-padded rows in set order, by a leading variant axis
    flattened into the row dimension: row ``v * num_sets + s`` is variant
    ``v``'s copy of set ``s``. Each step broadcasts the same block column
    to every variant (``np.tile``); per-row ``rmax``/insertion vectors
    (``np.repeat`` over the variant axis) parameterize the aging and fill
    updates; per-variant hits come back from one ``bincount`` over
    ``row // num_sets``. The per-step Python overhead — the reason a warm
    parameter sweep used to cost one full replay per variant — is paid
    once for the whole grid.

    Exactness: variants never interact (disjoint row blocks), so each
    variant's rows step through exactly the recurrence its own
    :func:`_lockstep` run would — the differential suite pins
    bit-identity per variant.

    Two representation changes keep the stacked step from costing what
    ``nv`` independent steps would:

    * **Compact block ids** — the kernel only ever compares blocks for
      equality, so the address column is remapped through ``np.unique``
      to dense ``int32`` ids once, halving the traffic of the dominant
      ``(rows, ways)`` comparison.
    * **Offset-form RRPVs** — the true RRPV of ``(row, way)`` is
      ``rel[row, way] + off[row]``. The aging rounds on a victimless
      miss add the same delta to every way of the row, which in offset
      form is one scatter-add into ``off`` instead of a gather / age /
      write-back round trip over the row's RRPV vector; hits and
      insertions store absolute values minus the row offset. ``argmax``
      over ``rel`` still finds the victim because the offset is uniform
      within a row.
    """
    nv = len(configs)
    lens = np.diff(part.starts)
    if nv == 0 or len(lens) == 0:
        return [0] * nv
    maxlen = int(lens.max())
    num_sets = part.num_sets
    ids = np.unique(part.blocks_np, return_inverse=True)[1].astype(np.int32)
    seg = np.full((num_sets, maxlen), -1, dtype=np.int32)
    col = np.arange(maxlen)
    seg[col[None, :] < lens[:, None]] = ids
    total = nv * num_sets
    rmax_rows = np.repeat(
        np.asarray([rmax for rmax, __ in configs], dtype=np.int64), num_sets
    )
    ins_rows = np.repeat(
        np.asarray([ins for __, ins in configs], dtype=np.int64), num_sets
    )
    blk = np.full((total, ways), -1, dtype=np.int32)
    rel = np.tile(rmax_rows[:, None], (1, ways))
    off = np.zeros(total, dtype=np.int64)
    filled = np.zeros(total, dtype=np.int64)
    hits = np.zeros(nv, dtype=np.int64)
    segT = np.tile(seg, (nv, 1)).T.copy()  # (maxlen, total), contiguous rows
    actT = segT >= 0
    match = np.empty((total, ways), dtype=bool)
    for i in range(maxlen):
        b = segT[i]
        np.equal(blk, b[:, None], out=match)
        is_hit = match.any(axis=1)
        is_hit &= actT[i]
        hit_rows = np.flatnonzero(is_hit)
        if hit_rows.size:
            hit_ways = match.argmax(axis=1)[hit_rows]
            rel[hit_rows, hit_ways] = -off[hit_rows]
            hits += is_hit.reshape(nv, num_sets).sum(axis=1)
        miss_rows = np.flatnonzero(actT[i] ^ is_hit)
        if not miss_rows.size:
            continue
        fill_count = filled[miss_rows]
        cold = fill_count < ways
        way = fill_count.copy()
        filled[miss_rows[cold]] += 1
        full_rows = miss_rows[~cold]
        if full_rows.size:
            sub = rel[full_rows]
            victim = sub.argmax(axis=1)
            top = sub[np.arange(full_rows.size), victim] + off[full_rows]
            off[full_rows] += rmax_rows[full_rows] - top
            way[~cold] = victim
        rel[miss_rows, way] = ins_rows[miss_rows] - off[miss_rows]
        blk[miss_rows, way] = b[miss_rows]
    return [int(h) for h in hits]


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
            drawing = lanes.blocks if use_b is None else lanes.blocks[use_b]
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
    counts = run(lanes, is_b[lanes.blocks & mask], fills)
    fills = np.concatenate(fills) if fills else np.zeros(0, dtype=np.int64)
    return (counts, roles, duel,
            *_psel_steps(fills, is_b[blocks[fills] & mask], duel))


def _run_partitioned(stream: LlcStream, part: StreamPartition,
                     geometry: CacheGeometry, policy,
                     trail: Optional[list], profile=None) -> int:
    """Replay every set of ``policy`` (see :func:`_kernel`); returns hits.

    Count mode when ``trail`` is None. An oracle wrapper gets the study
    counters the object model would have counted.
    """
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
    part = partition_stream(stream.blocks, geometry.num_sets)
    base, __, run = _kernel(stream, geometry, policy, None)
    positions, values = _leader_pass(
        part, stream.numpy_columns()[2], base, run)[3:]
    return positions.tolist(), values


# ----------------------------------------------------------------------
# Phase 4: the walk — global fill order, residency metadata, observers
# ----------------------------------------------------------------------

class ReplayWalk:
    """Everything a scalar replay's observers see, rebuilt offline.

    ``rids`` holds, per access, the residency id (global fill order,
    0-based) it lands in; an access is a miss iff it is its residency's
    fill.

    Per-residency lists (length ``residencies``, fill order): block, fill
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
    ordered = fill[perm]
    walk.res_fill = ordered.tolist()
    walk.res_block = stream.numpy_columns()[2][ordered].tolist()
    walk.evicted_rid = np.where(
        evicted >= 0, inv[np.maximum(evicted, 0)], np.int64(-1))[perm].tolist()
    walk.rids = array("q", bytes(8 * n))
    rids_np = np.frombuffer(walk.rids, dtype=np.int64)
    rids_np[fill] = inv
    rids_np[hit_pos] = inv[hit_rid]
    # The scalar flush visits sets in index order and ways in way order.
    walk.live_rids = inv[live_ids[np.lexsort((live_ways, live_sets))]].tolist()
    walk.n = n
    walk.set_mask = geometry.num_sets - 1
    walk.hits = n - count
    walk.misses = count
    return walk


_MAX_NUMPY_CORE = 62
"""Highest core id the int64 mask kernel handles (1 << core must fit)."""


def _reconstruct_python(walk: ReplayWalk, stream: LlcStream) -> None:
    """Pure-Python metadata pass for core ids above :data:`_MAX_NUMPY_CORE`."""
    count = walk.residencies
    res_hits = [0] * count
    res_other = [0] * count
    res_cmask = [0] * count
    res_wmask = [0] * count
    fill_core = [0] * count
    cores, __, ___, writes = stream.columns()
    rids = walk.rids
    res_fill = walk.res_fill
    for i in range(walk.n):
        rid = rids[i]
        core = cores[i]
        bit = 1 << core
        if res_fill[rid] != i:
            res_hits[rid] += 1
            res_cmask[rid] |= bit
            if writes[i]:
                res_wmask[rid] |= bit
            if core != fill_core[rid]:
                res_other[rid] += 1
        else:
            fill_core[rid] = core
            res_cmask[rid] = bit
            res_wmask[rid] = bit if writes[i] else 0
    walk.res_hits = res_hits
    walk.res_other_hits = res_other
    walk.res_core_mask = res_cmask
    walk.res_write_mask = res_wmask


def _reconstruct_numpy(walk: ReplayWalk, stream: LlcStream) -> bool:
    """Vectorized metadata pass; returns False when it must defer.

    Segmented reductions over the (stable) rid-sorted stream columns:
    ``bincount`` for hit and other-hit counts, ``bitwise_or.reduceat`` for
    the core and write masks. Defers to :func:`_reconstruct_python` for
    core ids too wide for int64 masks (never the case for the paper's
    8-core machine).
    """
    count = walk.residencies
    if count == 0:
        walk.res_hits = []
        walk.res_other_hits = []
        walk.res_core_mask = []
        walk.res_write_mask = []
        return True
    cores_np, __, ___, writes_np = stream.numpy_columns()
    if int(cores_np.max()) > _MAX_NUMPY_CORE:
        return False
    rids_np = np.frombuffer(walk.rids, dtype=np.int64)
    res_fill_np = np.asarray(walk.res_fill, dtype=np.int64)
    hit_mask = np.ones(walk.n, dtype=bool)
    hit_mask[res_fill_np] = False

    fill_core = cores_np[res_fill_np].astype(np.int64)
    core_bits = np.left_shift(np.int64(1), cores_np.astype(np.int64))

    res_hits = np.bincount(rids_np[hit_mask], minlength=count)
    other = hit_mask & (cores_np.astype(np.int64) != fill_core[rids_np])
    res_other = np.bincount(rids_np[other], minlength=count)

    order = np.argsort(rids_np, kind="stable")
    counts = np.bincount(rids_np, minlength=count)
    starts = np.zeros(count, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sorted_bits = core_bits[order]
    res_cmask = np.bitwise_or.reduceat(sorted_bits, starts)
    write_bits = np.where(writes_np[order] != 0, sorted_bits, np.int64(0))
    res_wmask = np.bitwise_or.reduceat(write_bits, starts)

    walk.res_hits = res_hits.tolist()
    walk.res_other_hits = res_other.tolist()
    walk.res_core_mask = res_cmask.tolist()
    walk.res_write_mask = res_wmask.tolist()
    return True


def _reconstruct(walk: ReplayWalk, stream: LlcStream) -> str:
    """Rebuild ``walk``'s residency metadata; returns the kernel that ran."""
    if _reconstruct_numpy(walk, stream):
        return "numpy"
    _reconstruct_python(walk, stream)
    return "python"


def _replay_observers(
    walk: ReplayWalk, stream: LlcStream, observers: Tuple
) -> None:
    """Emit the exact callback sequence the scalar replay would produce."""
    pcs = stream.pcs
    cores = stream.cores
    res_block = walk.res_block
    res_fill = walk.res_fill
    res_hits = walk.res_hits
    res_other = walk.res_other_hits
    res_cmask = walk.res_core_mask
    res_wmask = walk.res_write_mask
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

    for rid, (fill, victim_rid) in enumerate(zip(res_fill, walk.evicted_rid)):
        if victim_rid >= 0:
            # The scalar model ends the victim's residency before the fill
            # callbacks of the access that evicted it.
            emit_ended(victim_rid, fill + 1, False)
        block = res_block[rid]
        for observer in observers:
            observer.residency_started(
                block, block & set_mask, fill + 1, pcs[fill], cores[fill]
            )
    for rid in walk.live_rids:
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
    (``reconstruct``), plus the metadata kernel that ran
    (``reconstruct_kernel``: ``"numpy"`` or ``"python"``).
    """
    _setpath_tier(policy, stream)
    trail: list = []
    _run_partitioned(
        stream, partition_stream(stream.blocks, geometry.num_sets,
                                 profile=profile),
        geometry, policy, trail, profile=profile,
    )
    start = perf_counter()
    walk = _assemble_walk(trail, stream, geometry)
    if profile is not None:
        profile["assemble"] = perf_counter() - start
        start = perf_counter()
    kernel = _reconstruct(walk, stream)
    if profile is not None:
        profile["reconstruct"] = perf_counter() - start
        profile["reconstruct_kernel"] = kernel
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
    setpath-eligible policies: same hit/miss/eviction counts, same observer
    callbacks in the same order (equivalence-tested per policy). Without
    observers the replay is pure classification (no skeleton).
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
        _replay_observers(walk, stream, tuple(observers))
        if profile is not None:
            profile["observer_replay"] = perf_counter() - phase_start
        hits, misses = walk.hits, walk.misses
    else:
        part = partition_stream(
            stream.blocks, geometry.num_sets, profile=profile
        )
        hits = _run_partitioned(
            stream, part, geometry, policy, None, profile=profile
        )
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
