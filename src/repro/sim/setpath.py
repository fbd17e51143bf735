"""Exact set-partitioned replay for per-set replacement policies.

The scalar :class:`repro.cache.llc.SharedLlc` walk is exact for every
policy but pays full model overhead per access. The stack-distance fast
path (:mod:`repro.sim.fastpath`) removes that overhead for plain LRU only.
This module covers the rest of the policy matrix by exploiting a weaker
structural property than Mattson inclusion: for most policies the sets of
a set-associative cache are **independent state machines**. RRPV vectors,
recency stamps, NRU reference bits, per-way next-use values — all of it is
per-set state, read and written only by accesses mapping to that set. The
replay therefore decomposes exactly:

1. **Partition** — bucket the recorded stream by set index in one
   vectorized pass (stable ``argsort`` over ``block & (num_sets-1)``),
   keeping each access's global position.
2. **Per-set kernels** — replay each set's subsequence under a compact
   array-state kernel (RRPV list for SRRIP/BRRIP, ordered recency list for
   the LRU/LIP/BIP family, reference bits for NRU, next-use values for
   OPT). Kernels are bit-exact transcriptions of the scalar policies,
   including RNG draw order: stochastic policies draw from per-set streams
   (:meth:`repro.policies.base.ReplacementPolicy.set_rng`), so a set's
   draw indices depend only on its own fill sequence. Count-mode SRRIP
   and the sharing oracle over LRU or SRRIP go one step further: they are
   deterministic, so all sets advance in lockstep through one numpy
   kernel over a set-by-position block matrix (:func:`_count_lockstep`).
3. **Two-phase dueling** (DIP/DRRIP) — sets couple only through the PSEL
   counter, and only leader sets write it. Replay leaders first (their
   behaviour is role-based, never PSEL-dependent), merge their miss
   positions into the exact PSEL time-series, then replay followers
   reading the reconstructed winner flag at each fill position.

Policies with genuinely global state — SHiP's SHCT is trained by every
set's fills, hits, and evictions — have no exact decomposition and stay on
the scalar model (tier ``scalar``); DESIGN.md decision 9 has the argument.

Observer-carrying replays additionally record the residency skeleton
(fills, evictions, way assignments) per set and stitch it back into global
fill order, reusing the fast path's metadata reconstruction and observer
replay verbatim — observers see exactly the callback sequence the scalar
model would have produced.

Which policies run here is decided by the replay planner
(:func:`repro.sim.plan.plan_replay`), whose
:data:`repro.sim.plan.REPLAY_KERNELS` table also names the kernel family
each class steps through; :func:`repro.sim.multipass.run_policy_on_stream`
carries the plan out.
"""

from array import array
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.policies.base import REPLAY_DUELING, REPLAY_SET, ReplacementPolicy
from repro.policies.dip import BipPolicy, DuelingController
from repro.policies.lru import LipPolicy, LruPolicy
from repro.policies.opt import NO_NEXT_USE
from repro.policies.rrip import BrripPolicy, SrripPolicy
from repro.sim.fastpath import (
    LruReplayReconstruction,
    _reconstruct,
    _replay_observers,
)
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

# Insertion modes of the recency (stamp-ordered) family.
_MODE_MRU = 0
_MODE_LIP = 1
_MODE_BIP = 2

_RECENCY_MODES = {LruPolicy: _MODE_MRU, LipPolicy: _MODE_LIP, BipPolicy: _MODE_BIP}

_NO_KEY = np.iinfo(np.int64).min
"""A protected way's victim key while an exemption looks past it."""


# ----------------------------------------------------------------------
# Phase 1: stream partition
# ----------------------------------------------------------------------

class StreamPartition:
    """The recorded stream bucketed by set index.

    ``blocks[starts[s]:starts[s+1]]`` is set ``s``'s access subsequence in
    stream order; ``order`` holds each grouped access's global stream
    position (``order_np``/``blocks_np`` are the same columns as numpy
    arrays).
    """

    __slots__ = (
        "num_sets", "blocks", "order", "starts", "order_np", "blocks_np",
    )


def partition_stream(blocks, num_sets: int, profile=None) -> StreamPartition:
    """Bucket ``blocks`` by ``block & (num_sets - 1)`` preserving order.

    One stable ``argsort`` over the set-index column.
    """
    part = StreamPartition()
    part.num_sets = num_sets
    start = perf_counter()
    if isinstance(blocks, array) and blocks.typecode == "q":
        column = np.frombuffer(blocks, dtype=np.int64)
    else:
        column = np.asarray(blocks, dtype=np.int64)
    sets = column & (num_sets - 1)
    order_np = np.argsort(sets, kind="stable")
    counts = np.bincount(sets, minlength=num_sets)
    starts = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    grouped = column[order_np]
    part.blocks = grouped.tolist()
    part.order = order_np.tolist()
    part.starts = starts.tolist()
    part.order_np = order_np
    part.blocks_np = grouped
    if profile is not None:
        profile["partition"] = perf_counter() - start
    return part


# ----------------------------------------------------------------------
# Phase 2a: count kernels (classification only, no residency skeleton)
# ----------------------------------------------------------------------

def _count_rrip(seg, ways, rmax, rng, throttle) -> int:
    """SRRIP (``rng`` None) / BRRIP count kernel for one set."""
    way_of = {}
    blk = [0] * ways
    rrpv = [rmax] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for block in seg:
        way = get(block)
        if way is not None:
            rrpv[way] = 0
            hits += 1
            continue
        if filled < ways:
            way = filled
            filled += 1
        else:
            top = max(rrpv)
            if top != rmax:
                # Aging: the scalar +1-all rounds until some way reaches
                # rmax add the same delta to every way.
                delta = rmax - top
                for w in range(ways):
                    rrpv[w] += delta
            way = rrpv.index(rmax)
            del way_of[blk[way]]
        if rng is None or rng.randrange(throttle) == 0:
            rrpv[way] = rmax - 1
        else:
            rrpv[way] = rmax
        blk[way] = block
        way_of[block] = way
    return hits


def _count_lockstep(part: StreamPartition, ways: int, rmax: Optional[int],
                    hints=None, cores=None, mode: str = "both",
                    release: str = "never") -> Tuple[int, int, int, int]:
    """Lockstep count kernel: every set advances one access per numpy step.

    Serves count-mode SRRIP (``hints`` None) and the sharing oracle
    wrapper over LRU (``rmax`` None) or SRRIP, whose per-access budget
    and core columns come in stream order, with the wrapper's ``mode``
    and ``release``. Both are deterministic and keep all state per set
    (decision 9), so step ``i`` processes every set's ``i``-th access at
    once. Rows hold the sets longest first, so the sets still active at
    step ``i`` are a prefix of the rows and no lane is ever padded.

    State is ``(sets, ways)`` matrices of resident blocks, victim keys,
    budgets and fill cores. The key is the RRPV under SRRIP and minus
    the step under LRU: a step stamps at most one way per set, so that
    is LRU order, and the synthetic promote-hit right after a fill
    changes nothing. Every miss takes its row's first largest key, after
    SRRIP's closed-form aging (:func:`_count_rrip`), and an exemption the
    first largest key among unprotected ways. A cold way's key is above
    every live one (SRRIP ages only full sets, so no live way reaches
    ``rmax`` before), which makes the lowest cold way the fill. Counters
    follow the object model's decision order. Returns ``(hits,
    protected_fills, exemptions, releases)``.
    """
    starts = np.asarray(part.starts, dtype=np.int64)
    lens = np.diff(starts)
    rank = np.empty(len(lens), dtype=np.int64)
    rank[np.argsort(-lens, kind="stable")] = np.arange(len(lens))
    step = np.arange(len(part.order_np)) - np.repeat(starts[:-1], lens)
    off = np.concatenate(([0], np.cumsum(np.bincount(step))))
    slot = off[step] + np.repeat(rank, lens)
    blocks = np.empty_like(part.blocks_np)
    blocks[slot] = part.blocks_np
    pos = np.empty_like(part.order_np)
    pos[slot] = part.order_np
    if hints is not None:
        hints, cores = hints[pos], cores[pos]
    blk = np.full((len(lens), ways), -1, dtype=np.int64)
    key = np.full_like(blk, 1 if rmax is None else rmax)
    budget = np.zeros_like(blk)
    fill_core = np.zeros_like(blk)
    exempting = hints is not None and mode != "insert-promote"
    hits = protected = exempted = released = 0
    bounds = off.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        b = blocks[lo:hi]
        top = -i if rmax is None else 0
        match = blk[:hi - lo] == b[:, None]
        rows, hit_ways = np.nonzero(match)
        hit = np.zeros(hi - lo, dtype=bool)
        hit[rows] = True
        if rows.size:
            key[rows, hit_ways] = top
            hits += rows.size
            if hints is not None and release != "never":
                left = budget[rows, hit_ways]
                shared = (left > 0) & (cores[lo:hi][rows]
                                       != fill_core[rows, hit_ways])
                left = np.where(release == "budget", left[shared] - 1, 0)
                budget[rows[shared], hit_ways[shared]] = left
                released += np.count_nonzero(left == 0)
        rows = np.flatnonzero(~hit)
        if not rows.size:
            continue
        sub = key[rows]
        if rmax is not None:
            sub += (rmax - sub.max(axis=1))[:, None]
            key[rows] = sub
        first = way = sub.argmax(axis=1)
        if exempting:
            guard = budget[rows] > 0
            if guard.any():
                best = np.where(guard, _NO_KEY, sub).argmax(axis=1)
                way = np.where(guard.all(axis=1), first, best)
                exempted += np.count_nonzero(way != first)
        blk[rows, way] = b[rows]
        if hints is None:
            key[rows, way] = rmax - 1
            continue
        hint = hints[lo:hi][rows]
        budget[rows, way] = hint
        fill_core[rows, way] = cores[lo:hi][rows]
        hinted = hint > 0
        protected += np.count_nonzero(hinted)
        fill = -i if rmax is None else rmax - 1
        key[rows, way] = np.where(hinted & (mode != "victim-exempt"), top,
                                  fill)
    return hits, int(protected), int(exempted), int(released)


def _count_rrip_sync_stacked(
    part: StreamPartition, ways: int, configs
) -> List[int]:
    """Stacked synchronous SRRIP kernel: every parameter variant at once.

    ``configs`` is a sequence of ``(rmax, insertion_rrpv)`` pairs — one per
    grid variant. State generalizes :func:`_count_lockstep`'s SRRIP
    recurrence, over ``-1``-padded rows in set order, by a leading
    variant axis flattened into the row dimension: row
    ``v * num_sets + s`` is variant ``v``'s copy of set ``s``. Each step
    broadcasts the same block column to every variant (``np.tile``);
    per-row ``rmax``/insertion vectors (``np.repeat`` over the variant
    axis) parameterize the aging and fill updates; per-variant hits come
    back from one ``bincount`` over ``row // num_sets``. The per-step Python overhead — the reason a warm
    parameter sweep used to cost one full replay per variant — is paid once
    for the whole grid.

    Exactness: variants never interact (disjoint row blocks), so each
    variant's rows step through exactly the recurrence its own
    :func:`_count_lockstep` run would — the differential suite pins
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
    starts = np.asarray(part.starts, dtype=np.int64)
    lens = np.diff(starts)
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


def _count_rrip_roles(seg, pos, ways, rmax, bimodal, rng, throttle,
                      use_b, fills) -> int:
    """DRRIP leader/follower count kernel for one set.

    Leaders pass ``use_b=None`` (``bimodal`` fixes the role: False = SRRIP
    constituent A, True = BRRIP constituent B) and a ``fills`` list that
    receives every miss's global position. Followers pass the per-access
    ``use_b`` flags reconstructed from the PSEL series.
    """
    way_of = {}
    blk = [0] * ways
    rrpv = [rmax] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for idx in range(len(seg)):
        block = seg[idx]
        way = get(block)
        if way is not None:
            rrpv[way] = 0
            hits += 1
            continue
        if fills is not None:
            fills.append(pos[idx])
        if filled < ways:
            way = filled
            filled += 1
        else:
            top = max(rrpv)
            if top != rmax:
                delta = rmax - top
                for w in range(ways):
                    rrpv[w] += delta
            way = rrpv.index(rmax)
            del way_of[blk[way]]
        b = bimodal if use_b is None else use_b[idx]
        if not b or rng.randrange(throttle) == 0:
            rrpv[way] = rmax - 1
        else:
            rrpv[way] = rmax
        blk[way] = block
        way_of[block] = way
    return hits


def _count_recency(seg, ways, mode, rng, throttle) -> int:
    """LRU/LIP/BIP count kernel: residents kept in LRU→MRU stamp order."""
    st: List[int] = []
    hits = 0
    for block in seg:
        if block in st:
            st.remove(block)
            st.append(block)
            hits += 1
            continue
        if len(st) == ways:
            del st[0]
        if mode == _MODE_MRU:
            st.append(block)
        elif mode == _MODE_LIP:
            st.insert(0, block)
        elif rng.randrange(throttle) == 0:
            st.append(block)
        else:
            st.insert(0, block)
    return hits


def _count_recency_roles(seg, pos, ways, mode, rng, throttle,
                         use_b, fills) -> int:
    """DIP leader/follower count kernel (see :func:`_count_rrip_roles`)."""
    st: List[int] = []
    hits = 0
    for idx in range(len(seg)):
        block = seg[idx]
        if block in st:
            st.remove(block)
            st.append(block)
            hits += 1
            continue
        if fills is not None:
            fills.append(pos[idx])
        if len(st) == ways:
            del st[0]
        m = mode if use_b is None else (_MODE_BIP if use_b[idx] else _MODE_MRU)
        if m == _MODE_MRU:
            st.append(block)
        elif m == _MODE_LIP:
            st.insert(0, block)
        elif rng.randrange(throttle) == 0:
            st.append(block)
        else:
            st.insert(0, block)
    return hits


def _count_nru(seg, ways) -> int:
    """NRU count kernel: one reference bit per way."""
    way_of = {}
    blk = [0] * ways
    bits = [0] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for block in seg:
        way = get(block)
        if way is not None:
            hits += 1
        else:
            if filled < ways:
                way = filled
                filled += 1
            else:
                # At ways == 1 the touch rule keeps the single bit set, so
                # no clear way exists; mirror the scalar model's way-0
                # fallback (unreachable for ways >= 2).
                way = bits.index(0) if 0 in bits else 0
                del way_of[blk[way]]
            blk[way] = block
            way_of[block] = way
        bits[way] = 1
        if 0 not in bits:
            for i in range(ways):
                bits[i] = 0
            bits[way] = 1
    return hits


def _count_random(seg, ways, rng) -> int:
    """Random count kernel: the per-set stream draws once per eviction."""
    way_of = {}
    blk = [0] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for block in seg:
        way = get(block)
        if way is not None:
            hits += 1
            continue
        if filled < ways:
            way = filled
            filled += 1
        else:
            way = rng.randrange(ways)
            del way_of[blk[way]]
        blk[way] = block
        way_of[block] = way
    return hits


def _count_opt(seg, seg_next, ways) -> int:
    """Belady OPT count kernel over the set's gathered next-use values."""
    way_of = {}
    blk = [0] * ways
    nxt = [NO_NEXT_USE] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for block, next_pos in zip(seg, seg_next):
        way = get(block)
        if way is not None:
            nxt[way] = next_pos
            hits += 1
            continue
        if filled < ways:
            way = filled
            filled += 1
        else:
            way = nxt.index(max(nxt))
            del way_of[blk[way]]
        nxt[way] = next_pos
        blk[way] = block
        way_of[block] = way
    return hits


# ----------------------------------------------------------------------
# Phase 2b: walk kernels (classification + residency skeleton recording)
# ----------------------------------------------------------------------

class _WalkBuf:
    """Skeleton accumulator shared by every set's walk kernel.

    Residency ids here are *concat ids*: assigned in set-processing order,
    remapped to global fill order by :func:`_assemble_walk`. The per-access
    ``distances``/``rids`` columns are indexed by global position directly
    (each set writes only its own positions); distances use the degenerate
    hit/miss encoding (0 for hits, ``ways`` for misses) — non-LRU policies
    have no stack distance, and nothing downstream of the walk reads more
    than the hit/miss classification.
    """

    __slots__ = ("n", "distances", "rids", "res_block", "res_fill",
                 "res_end", "res_way", "evicted", "live", "counter")

    def __init__(self, n: int):
        self.n = n
        self.distances = array("i", bytes(4 * n))
        self.rids = array("q", bytes(8 * n))
        self.res_block: List[int] = []
        self.res_fill: List[int] = []
        self.res_end: List[int] = []
        self.res_way: List[int] = []
        self.evicted: List[int] = []
        self.live: List[Tuple[int, int, int]] = []
        self.counter = 0


def _walk_rrip(seg, pos, ways, rmax, bimodal, rng, throttle, use_b, fills,
               buf, set_index) -> int:
    """RRIP walk kernel: plain (``use_b``/``fills`` None), leader, follower."""
    distances = buf.distances
    rids = buf.rids
    res_end = buf.res_end
    evicted = buf.evicted
    counter = buf.counter
    way_of = {}
    id_of = {}
    blk = [0] * ways
    rrpv = [rmax] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for idx in range(len(seg)):
        block = seg[idx]
        p = pos[idx]
        way = get(block)
        if way is not None:
            rrpv[way] = 0
            distances[p] = 0
            rids[p] = id_of[block]
            hits += 1
            continue
        distances[p] = ways
        if fills is not None:
            fills.append(p)
        new_id = counter
        counter += 1
        if filled < ways:
            way = filled
            filled += 1
            evicted.append(-1)
        else:
            top = max(rrpv)
            if top != rmax:
                delta = rmax - top
                for w in range(ways):
                    rrpv[w] += delta
            way = rrpv.index(rmax)
            victim = blk[way]
            vid = id_of.pop(victim)
            del way_of[victim]
            res_end[vid] = p
            evicted.append(vid)
        b = bimodal if use_b is None else use_b[idx]
        if not b or (rng is not None and rng.randrange(throttle) == 0):
            rrpv[way] = rmax - 1
        else:
            rrpv[way] = rmax
        blk[way] = block
        way_of[block] = way
        id_of[block] = new_id
        buf.res_block.append(block)
        buf.res_fill.append(p)
        res_end.append(-1)
        buf.res_way.append(way)
        rids[p] = new_id
    buf.counter = counter
    live = buf.live
    for w in range(filled):
        live.append((set_index, w, id_of[blk[w]]))
    return hits


def _walk_recency(seg, pos, ways, mode, rng, throttle, use_b, fills,
                  buf, set_index) -> int:
    """Recency-family walk kernel: plain LRU/LIP/BIP, DIP leader, follower."""
    distances = buf.distances
    rids = buf.rids
    res_end = buf.res_end
    evicted = buf.evicted
    counter = buf.counter
    st: List[int] = []
    way_of = {}
    id_of = {}
    blk = [0] * ways
    hits = 0
    for idx in range(len(seg)):
        block = seg[idx]
        p = pos[idx]
        rid = id_of.get(block)
        if rid is not None:
            st.remove(block)
            st.append(block)
            distances[p] = 0
            rids[p] = rid
            hits += 1
            continue
        distances[p] = ways
        if fills is not None:
            fills.append(p)
        new_id = counter
        counter += 1
        if len(st) == ways:
            victim = st.pop(0)
            vid = id_of.pop(victim)
            way = way_of.pop(victim)
            res_end[vid] = p
            evicted.append(vid)
        else:
            way = len(st)
            evicted.append(-1)
        m = mode if use_b is None else (_MODE_BIP if use_b[idx] else _MODE_MRU)
        if m == _MODE_MRU:
            st.append(block)
        elif m == _MODE_LIP:
            st.insert(0, block)
        elif rng.randrange(throttle) == 0:
            st.append(block)
        else:
            st.insert(0, block)
        way_of[block] = way
        id_of[block] = new_id
        blk[way] = block
        buf.res_block.append(block)
        buf.res_fill.append(p)
        res_end.append(-1)
        buf.res_way.append(way)
        rids[p] = new_id
    buf.counter = counter
    live = buf.live
    for w in range(len(st)):
        live.append((set_index, w, id_of[blk[w]]))
    return hits


def _walk_nru(seg, pos, ways, buf, set_index) -> int:
    """NRU walk kernel."""
    distances = buf.distances
    rids = buf.rids
    res_end = buf.res_end
    evicted = buf.evicted
    counter = buf.counter
    way_of = {}
    id_of = {}
    blk = [0] * ways
    bits = [0] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for idx in range(len(seg)):
        block = seg[idx]
        p = pos[idx]
        way = get(block)
        if way is not None:
            distances[p] = 0
            rids[p] = id_of[block]
            hits += 1
        else:
            distances[p] = ways
            new_id = counter
            counter += 1
            if filled < ways:
                way = filled
                filled += 1
                evicted.append(-1)
            else:
                # ways == 1: no clear bit exists; scalar falls back to 0.
                way = bits.index(0) if 0 in bits else 0
                victim = blk[way]
                vid = id_of.pop(victim)
                del way_of[victim]
                res_end[vid] = p
                evicted.append(vid)
            blk[way] = block
            way_of[block] = way
            id_of[block] = new_id
            buf.res_block.append(block)
            buf.res_fill.append(p)
            res_end.append(-1)
            buf.res_way.append(way)
            rids[p] = new_id
        bits[way] = 1
        if 0 not in bits:
            for i in range(ways):
                bits[i] = 0
            bits[way] = 1
    buf.counter = counter
    live = buf.live
    for w in range(filled):
        live.append((set_index, w, id_of[blk[w]]))
    return hits


def _walk_random(seg, pos, ways, rng, buf, set_index) -> int:
    """Random walk kernel."""
    distances = buf.distances
    rids = buf.rids
    res_end = buf.res_end
    evicted = buf.evicted
    counter = buf.counter
    way_of = {}
    id_of = {}
    blk = [0] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for idx in range(len(seg)):
        block = seg[idx]
        p = pos[idx]
        way = get(block)
        if way is not None:
            distances[p] = 0
            rids[p] = id_of[block]
            hits += 1
            continue
        distances[p] = ways
        new_id = counter
        counter += 1
        if filled < ways:
            way = filled
            filled += 1
            evicted.append(-1)
        else:
            way = rng.randrange(ways)
            victim = blk[way]
            vid = id_of.pop(victim)
            del way_of[victim]
            res_end[vid] = p
            evicted.append(vid)
        blk[way] = block
        way_of[block] = way
        id_of[block] = new_id
        buf.res_block.append(block)
        buf.res_fill.append(p)
        res_end.append(-1)
        buf.res_way.append(way)
        rids[p] = new_id
    buf.counter = counter
    live = buf.live
    for w in range(filled):
        live.append((set_index, w, id_of[blk[w]]))
    return hits


def _walk_opt(seg, seg_next, pos, ways, buf, set_index) -> int:
    """Belady OPT walk kernel."""
    distances = buf.distances
    rids = buf.rids
    res_end = buf.res_end
    evicted = buf.evicted
    counter = buf.counter
    way_of = {}
    id_of = {}
    blk = [0] * ways
    nxt = [NO_NEXT_USE] * ways
    filled = 0
    hits = 0
    get = way_of.get
    for idx in range(len(seg)):
        block = seg[idx]
        p = pos[idx]
        way = get(block)
        if way is not None:
            nxt[way] = seg_next[idx]
            distances[p] = 0
            rids[p] = id_of[block]
            hits += 1
            continue
        distances[p] = ways
        new_id = counter
        counter += 1
        if filled < ways:
            way = filled
            filled += 1
            evicted.append(-1)
        else:
            way = nxt.index(max(nxt))
            victim = blk[way]
            vid = id_of.pop(victim)
            del way_of[victim]
            res_end[vid] = p
            evicted.append(vid)
        nxt[way] = seg_next[idx]
        blk[way] = block
        way_of[block] = way
        id_of[block] = new_id
        buf.res_block.append(block)
        buf.res_fill.append(p)
        res_end.append(-1)
        buf.res_way.append(way)
        rids[p] = new_id
    buf.counter = counter
    live = buf.live
    for w in range(filled):
        live.append((set_index, w, id_of[blk[w]]))
    return hits


# ----------------------------------------------------------------------
# Phase 2c: two-phase dueling (PSEL time-series reconstruction)
# ----------------------------------------------------------------------

def _psel_steps(a_fills, b_fills, duel):
    """Merge leader miss positions into the exact PSEL time-series.

    Returns ``(positions, values, flags)``: the sorted global positions of
    every leader miss (the only events that move PSEL), the PSEL value
    after each event (``values[0]``/``flags[0]`` describe the initial
    state, so both have one more entry than ``positions``), and the
    follower decision ``psel >= threshold`` after each event. The
    saturating walk itself stays scalar — saturation breaks ``cumsum`` —
    but the event merge vectorizes.
    """
    pos_np = np.asarray(a_fills + b_fills, dtype=np.int64)
    delta_np = np.ones(len(pos_np), dtype=np.int64)
    delta_np[len(a_fills):] = -1
    # Fill positions are unique (one access per position), so the
    # unstable default sort is deterministic here.
    order = np.argsort(pos_np)
    positions = pos_np[order].tolist()
    deltas = delta_np[order].tolist()
    psel = duel.psel
    psel_max = duel.psel_max
    threshold = duel.threshold
    values = [psel]
    flags = [psel >= threshold]
    for delta in deltas:
        if delta > 0:
            if psel < psel_max:
                psel += 1
        elif psel > 0:
            psel -= 1
        values.append(psel)
        flags.append(psel >= threshold)
    return positions, values, flags


def _make_flag_lookup(positions, flags, part: StreamPartition):
    """Per-set follower-decision gather: ``lookup(lo, hi) -> [bool, ...]``.

    The flag for an access at global position ``p`` is the PSEL decision
    after every leader-miss event strictly before ``p`` — exactly what the
    scalar model reads at that access's fill (a follower's own miss never
    moves PSEL).
    """
    pos_np = np.asarray(positions, dtype=np.int64)
    flags_np = np.asarray(flags, dtype=bool)

    def lookup(lo: int, hi: int) -> List[bool]:
        idx = np.searchsorted(pos_np, part.order_np[lo:hi], side="left")
        return flags_np[idx].tolist()

    return lookup


def _leader_pass(part: StreamPartition, geometry: CacheGeometry,
                 policy, buf: Optional[_WalkBuf]):
    """Replay every leader set; classify followers for the second phase.

    Returns ``(hits, a_fills, b_fills, followers)`` where the fill lists
    hold the global positions of every miss in A- and B-leader sets.
    """
    ways = geometry.ways
    starts = part.starts
    blocks = part.blocks
    order = part.order
    duel = policy.duel
    throttle = policy.throttle
    family = REPLAY_KERNELS[type(policy)][1]
    hits = 0
    a_fills: List[int] = []
    b_fills: List[int] = []
    followers: List[int] = []
    for s in range(part.num_sets):
        role = duel.role(s)
        if role == DuelingController.FOLLOWER:
            followers.append(s)
            continue
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        seg = blocks[lo:hi]
        pos = order[lo:hi]
        is_b = role == DuelingController.LEADER_B
        rng = policy.set_rng(s) if is_b else None
        fills = b_fills if is_b else a_fills
        if family == FAMILY_RRIP:
            rmax = policy.rrpv_max
            if buf is None:
                hits += _count_rrip_roles(
                    seg, pos, ways, rmax, is_b, rng, throttle, None, fills
                )
            else:
                hits += _walk_rrip(
                    seg, pos, ways, rmax, is_b, rng, throttle, None, fills,
                    buf, s,
                )
        else:
            mode = _MODE_BIP if is_b else _MODE_MRU
            if buf is None:
                hits += _count_recency_roles(
                    seg, pos, ways, mode, rng, throttle, None, fills
                )
            else:
                hits += _walk_recency(
                    seg, pos, ways, mode, rng, throttle, None, fills, buf, s
                )
    return hits, a_fills, b_fills, followers


def _follower_pass(part: StreamPartition, geometry: CacheGeometry,
                   policy, buf: Optional[_WalkBuf], lookup,
                   followers: List[int]) -> int:
    """Replay every follower set against the reconstructed PSEL flags."""
    ways = geometry.ways
    starts = part.starts
    blocks = part.blocks
    order = part.order
    throttle = policy.throttle
    family = REPLAY_KERNELS[type(policy)][1]
    hits = 0
    for s in followers:
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        seg = blocks[lo:hi]
        pos = order[lo:hi]
        use_b = lookup(lo, hi)
        rng = policy.set_rng(s)
        if family == FAMILY_RRIP:
            rmax = policy.rrpv_max
            if buf is None:
                hits += _count_rrip_roles(
                    seg, pos, ways, rmax, False, rng, throttle, use_b, None
                )
            else:
                hits += _walk_rrip(
                    seg, pos, ways, rmax, False, rng, throttle, use_b, None,
                    buf, s,
                )
        else:
            if buf is None:
                hits += _count_recency_roles(
                    seg, pos, ways, _MODE_MRU, rng, throttle, use_b, None
                )
            else:
                hits += _walk_recency(
                    seg, pos, ways, _MODE_MRU, rng, throttle, use_b, None,
                    buf, s,
                )
    return hits


def _gather_next_use(next_use, part: StreamPartition):
    """Group the precomputed next-use column by the partition order."""
    if isinstance(next_use, array) and next_use.typecode == "q":
        column = np.frombuffer(next_use, dtype=np.int64)
    else:
        column = np.asarray(next_use, dtype=np.int64)
    return column[part.order_np].tolist()


def _plain_pass(part: StreamPartition, geometry: CacheGeometry,
                policy, buf: Optional[_WalkBuf]) -> int:
    """Replay every set of a non-dueling per-set policy; returns hits."""
    cls = type(policy)
    family = REPLAY_KERNELS[cls][1]
    grouped_next = None
    if family == FAMILY_OPT:
        next_use = policy.next_use
        if len(next_use) != len(part.blocks):
            raise SimulationError(
                f"OPT replayed against a mismatched stream: next-use column "
                f"has {len(next_use)} entries for {len(part.blocks)} accesses"
            )
        grouped_next = _gather_next_use(next_use, part)
    if buf is None and cls is SrripPolicy:
        # Count-mode SRRIP steps every set in lockstep (no RNG, no
        # residency skeleton to record); BRRIP's per-set draws and walk
        # mode stay on the per-set kernels.
        return _count_lockstep(part, geometry.ways, policy.rrpv_max)[0]
    ways = geometry.ways
    starts = part.starts
    blocks = part.blocks
    order = part.order
    hits = 0
    for s in range(part.num_sets):
        lo, hi = starts[s], starts[s + 1]
        if lo == hi:
            continue
        seg = blocks[lo:hi]
        if family == FAMILY_RRIP:
            rmax = policy.rrpv_max
            bimodal = cls is BrripPolicy
            rng = policy.set_rng(s) if bimodal else None
            throttle = policy.throttle if bimodal else 0
            if buf is None:
                hits += _count_rrip(seg, ways, rmax, rng, throttle)
            else:
                hits += _walk_rrip(
                    seg, order[lo:hi], ways, rmax, bimodal, rng, throttle,
                    None, None, buf, s,
                )
        elif family == FAMILY_RECENCY:
            mode = _RECENCY_MODES[cls]
            rng = policy.set_rng(s) if mode == _MODE_BIP else None
            throttle = policy.throttle if mode == _MODE_BIP else 0
            if buf is None:
                hits += _count_recency(seg, ways, mode, rng, throttle)
            else:
                hits += _walk_recency(
                    seg, order[lo:hi], ways, mode, rng, throttle, None, None,
                    buf, s,
                )
        elif family == FAMILY_NRU:
            if buf is None:
                hits += _count_nru(seg, ways)
            else:
                hits += _walk_nru(seg, order[lo:hi], ways, buf, s)
        elif family == FAMILY_RANDOM:
            rng = policy.set_rng(s)
            if buf is None:
                hits += _count_random(seg, ways, rng)
            else:
                hits += _walk_random(seg, order[lo:hi], ways, rng, buf, s)
        else:  # FAMILY_OPT
            seg_next = grouped_next[lo:hi]
            if buf is None:
                hits += _count_opt(seg, seg_next, ways)
            else:
                hits += _walk_opt(seg, seg_next, order[lo:hi], ways, buf, s)
    return hits


def _oracle_pass(stream: LlcStream, part: StreamPartition,
                 geometry: CacheGeometry, policy) -> int:
    """Count an annotation-fed oracle wrapper over LRU or SRRIP in lockstep.

    The wrapper and its base stay unbound; the study counters are added
    onto the wrapper, where the object model would have counted them.
    """
    # budgets[i + 1] is access i's hint.
    hints = np.asarray(policy.hint_source.budgets, dtype=np.int64)[1:]
    hits, fills, exempted, released = _count_lockstep(
        part, geometry.ways, getattr(policy.base, "rrpv_max", None), hints,
        stream.numpy_columns()[0], policy.mode, policy.release,
    )
    policy.protected_fills += fills
    policy.exemptions_applied += exempted
    policy.releases += released
    return hits


def _run_partitioned(stream: LlcStream, part: StreamPartition,
                     geometry: CacheGeometry, policy,
                     buf: Optional[_WalkBuf], profile=None) -> int:
    """Bind ``policy`` and replay every set; returns hits.

    Count mode when ``buf`` is None. An oracle wrapper, the one planned
    policy without a :data:`REPLAY_KERNELS` row, has only the count-mode
    lockstep kernel and is never bound.
    """
    start = perf_counter()
    kernel = REPLAY_KERNELS.get(type(policy))
    if kernel is None:
        if buf is not None:
            raise SimulationError(
                f"no set-tier walk kernel for {policy.name!r}"
            )
        hits = _oracle_pass(stream, part, geometry, policy)
    elif kernel[0] == REPLAY_DUELING:
        policy.bind(geometry)
        hits, a_fills, b_fills, followers = _leader_pass(
            part, geometry, policy, buf
        )
        psel_start = perf_counter()
        positions, __, flags = _psel_steps(a_fills, b_fills, policy.duel)
        lookup = _make_flag_lookup(positions, flags, part)
        if profile is not None:
            profile["psel_series"] = perf_counter() - psel_start
        hits += _follower_pass(part, geometry, policy, buf, lookup, followers)
    else:
        policy.bind(geometry)
        hits = _plain_pass(part, geometry, policy, buf)
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
    policy.bind(geometry)
    __, a_fills, b_fills, ___ = _leader_pass(part, geometry, policy, None)
    positions, values, ____ = _psel_steps(a_fills, b_fills, policy.duel)
    return positions, values


# ----------------------------------------------------------------------
# Phase 3: walk assembly (concat ids → global fill order) + replay
# ----------------------------------------------------------------------

class SetReplayReconstruction(LruReplayReconstruction):
    """A set-partitioned replay's walk, in the fast path's layout.

    Identical field contract to :class:`LruReplayReconstruction` — so the
    metadata reconstruction and observer replay are reused verbatim — with
    one deliberate difference: ``distances`` carry only the degenerate
    hit/miss encoding (0 for hits, ``ways`` for misses). Non-LRU policies
    have no stack distance; consumers that need true reuse distances (the
    reuse probe) must build a canonical LRU walk separately.
    """

    __slots__ = ()


def _assemble_walk(buf: _WalkBuf, stream: LlcStream,
                   geometry: CacheGeometry,
                   profile=None) -> SetReplayReconstruction:
    """Stitch per-set skeletons into a global fill-ordered walk."""
    start = perf_counter()
    walk = SetReplayReconstruction()
    n = buf.n
    count = buf.counter
    buf.live.sort()
    fill_np = np.asarray(buf.res_fill, dtype=np.int64)
    perm = np.argsort(fill_np)  # fill positions are unique
    inv = np.empty(count, dtype=np.int64)
    inv[perm] = np.arange(count, dtype=np.int64)
    walk.res_block = np.asarray(buf.res_block, dtype=np.int64)[perm].tolist()
    walk.res_fill = fill_np[perm].tolist()
    walk.res_end = np.asarray(buf.res_end, dtype=np.int64)[perm].tolist()
    walk.res_way = np.asarray(buf.res_way, dtype=np.int64)[perm].tolist()
    evicted_np = np.asarray(buf.evicted, dtype=np.int64)
    mapped = np.where(
        evicted_np >= 0, inv[np.maximum(evicted_np, 0)], np.int64(-1)
    )
    walk.evicted_rid = mapped[perm].tolist()
    rids_np = np.frombuffer(buf.rids, dtype=np.int64)
    remapped = array("q", bytes(8 * n))
    np.frombuffer(remapped, dtype=np.int64)[...] = inv[rids_np]
    walk.rids = remapped
    walk.live_rids = [int(inv[cid]) for __, ___, cid in buf.live]
    walk.n = n
    walk.ways = geometry.ways
    walk.set_mask = geometry.num_sets - 1
    walk.distances = buf.distances
    walk.hits = n - count
    walk.misses = count
    walk.evictions = count - len(buf.live)
    if profile is not None:
        profile["assemble"] = perf_counter() - start
        start = perf_counter()
    kernel = _reconstruct(walk, stream)
    if profile is not None:
        profile["reconstruct"] = perf_counter() - start
        profile["reconstruct_kernel"] = kernel
    return walk


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
) -> SetReplayReconstruction:
    """Replay ``stream`` under ``policy`` rebuilding the full walk.

    ``policy`` must be an unbound setpath-eligible instance; it is bound
    here. The returned walk carries the same residency metadata contract
    as :func:`repro.sim.fastpath.reconstruct_lru_replay` (the probe layer
    consumes it), with degenerate distances (see
    :class:`SetReplayReconstruction`).
    """
    _setpath_tier(policy, stream)
    part = partition_stream(stream.blocks, geometry.num_sets, profile=profile)
    buf = _WalkBuf(len(stream.blocks))
    _run_partitioned(stream, part, geometry, policy, buf, profile=profile)
    return _assemble_walk(buf, stream, geometry, profile=profile)


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
    observers the replay is pure classification (count kernels, no
    skeleton). ``profile``, when a dict, receives per-phase wall times
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
