"""Compact-array backend for the scalar replay tier.

The fast replay tiers leave exactly one tier paying full model
overhead: ``scalar``. SHiP is its canonical occupant — the SHCT is written
by *every* set's fills, hits, and evictions, so no per-set decomposition
exists (DESIGN.md decision 9) and every SHiP cell crawls through
``SharedLlc.access`` at model speed. But SHiP's replay-relevant state is
tiny and flat: an RRPV byte, a signature, and an outcome bit per frame,
plus one global saturating-counter table. That is exactly the shape a
compact-array kernel handles well.

This module supplies that backend as two kernels:

* **SHiP kernel** (:func:`_ship_count_compact`) — a bit-exact
  transcription of ``SharedLlc.access`` + :class:`ShipPolicy` over flat
  per-set lists, with PC signatures pre-hashed in one vectorized pass.
  SHiP draws no RNG, so the transcription is deterministic and
  bit-identical to the scalar model (the differential suite pins it). It
  needs nothing beyond the interpreter and is several times faster than
  the model because it replaces per-access method dispatch, tuple
  unpacking, and residency bookkeeping with list indexing.
* **Oracle-tier kernel** (:func:`_oracle_count_compact`) — the same
  treatment for :class:`repro.oracle.wrapper.SharingAwareWrapper` over
  SHiP when its hint source is an offline annotation
  (:class:`repro.oracle.annotate.AnnotationHintSource`): hints are pure
  per-ordinal data, so they export as a column aligned with the
  stream and the whole protection protocol (victim exemption, synthetic
  promote-hits, budget releases) runs inside the kernel loop. The
  wrapper's study counters are written back onto the instance. The same
  wrapper over a recency or RRIP base (LRU, LIP, BIP, SRRIP, BRRIP, DIP,
  DRRIP) keeps all its state per set, so it takes the lockstep kernel of
  :mod:`repro.sim.setpath` instead, whatever the native gate says.

Which replays take these kernels is decided by
:func:`repro.sim.plan.plan_replay` (backend ``compact``); everything it
declines — undeclared subclasses, bound instances, live predictor hint
sources, observer-carrying replays, ``REPRO_SIM_NO_NATIVE`` — runs on the
scalar model, with the decline reason stamped on the result. With
``REPRO_SIM_NO_NATIVE`` set, only SHiP and SHiP-based oracle replays
reach the model.
"""

from time import perf_counter
from typing import Optional

import numpy as np

from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.envflag import env_flag
from repro.policies.base import REPLAY_SCALAR
from repro.policies.ship import ShipPolicy
from repro.sim.results import LlcSimResult

NO_NATIVE_ENV = "REPRO_SIM_NO_NATIVE"
"""Set truthy (:func:`repro.common.envflag.env_flag` semantics) to disable
the native scalar-tier backend; SHiP and SHiP-based oracle replays then
take the scalar model.
``=0``/``=false``/``=no`` count as unset, matching every other
``REPRO_SIM_*`` toggle.
"""

BACKEND_MODEL = "model"
"""Result produced by the scalar object model (``SharedLlc.access``)."""

BACKEND_COMPACT = "compact"
"""Result produced by the compact pure-Python nativepath kernel."""

BACKEND_NUMBA = "numba"
"""Label of the retired numba-compiled kernels. No replay produces it any
more; it stays because historic run records carry it and the end-to-end
benchmark (``bench/passes.py``) still counts it as a native backend."""


def native_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the three-state native-backend gate.

    ``None`` (auto) enables the backend unless :data:`NO_NATIVE_ENV` is
    set truthy; ``True``/``False`` force it on/off regardless.
    """
    if flag is not None:
        return flag
    return not env_flag(NO_NATIVE_ENV)


# ----------------------------------------------------------------------
# Signature preparation (vectorized)
# ----------------------------------------------------------------------

def _hash_pcs(pcs, mask: int):
    """Every access's SHCT signature: ``ShipPolicy._hash_pc`` columnwise."""
    column = np.asarray(pcs, dtype=np.int64)
    sigs = ((column >> 2) ^ (column >> 11) ^ (column >> 19)) & mask
    return sigs.tolist()


# ----------------------------------------------------------------------
# SHiP kernel
# ----------------------------------------------------------------------

def _ship_count_compact(blocks, sigs, num_sets: int, ways: int, rmax: int,
                        cmax: int, shct) -> int:
    """Count-mode SHiP replay over flat per-set lists; returns hits.

    Bit-exact transcription of the scalar path: free fills take the
    lowest free way (fill order — no back-invalidation exists in LLC-only
    replay), victim selection is SRRIP aging (one closed-form delta, as
    in :func:`repro.sim.setpath._lockstep`), and the SHCT sees the
    eviction decrement *before* the fill reads the incoming signature's
    counter — the same order ``SharedLlc.access`` runs ``on_evict`` and
    ``on_fill`` in, which matters when victim and filler share a
    signature.
    """
    set_mask = num_sets - 1
    where: dict = {}  # block -> (rrpv row, sig row, outcome row, way)
    get = where.get
    blk_rows = [[0] * ways for __ in range(num_sets)]
    rrpv_rows = [[rmax] * ways for __ in range(num_sets)]
    sig_rows = [[0] * ways for __ in range(num_sets)]
    out_rows = [[0] * ways for __ in range(num_sets)]
    filled = [0] * num_sets
    hits = 0
    for block, g in zip(blocks, sigs):
        entry = get(block)
        if entry is not None:
            rrow, srow, orow, way = entry
            rrow[way] = 0
            hits += 1
            if not orow[way]:
                orow[way] = 1
                g2 = srow[way]
                if shct[g2] < cmax:
                    shct[g2] += 1
            continue
        s = block & set_mask
        rrow = rrpv_rows[s]
        srow = sig_rows[s]
        orow = out_rows[s]
        brow = blk_rows[s]
        f = filled[s]
        if f < ways:
            way = f
            filled[s] = f + 1
        else:
            top = max(rrow)
            if top != rmax:
                delta = rmax - top
                for w in range(ways):
                    rrow[w] += delta
            way = rrow.index(rmax)
            del where[brow[way]]
            if not orow[way]:
                g2 = srow[way]
                if shct[g2] > 0:
                    shct[g2] -= 1
        srow[way] = g
        orow[way] = 0
        rrow[way] = rmax if shct[g] == 0 else rmax - 1
        brow[way] = block
        where[block] = (rrow, srow, orow, way)
    return hits


# ----------------------------------------------------------------------
# Oracle-tier kernel: SharingAwareWrapper over SHiP
# ----------------------------------------------------------------------
#
# The wrapper's replay-relevant state is as flat as SHiP's: one budget and
# one fill-core per frame on top of the base policy's own metadata, plus
# three global counters. Its hint source — when it is an offline
# annotation (repro.oracle.annotate.AnnotationHintSource) — is pure data
# keyed by the access ordinal, so the whole protection protocol lowers to
# an int column aligned with the stream: hints[i] == budgets[i + 1].
# The kernel below transcribes SharingAwareWrapper + ShipPolicy
# bit-exactly: base.on_evict runs before the budget reset, the synthetic
# promote-hit of insert-promote/both runs *after* the base fill (it
# increments the incoming signature's SHCT counter, exactly as the scalar
# model does), and victim selection walks SHiP's descending-RRPV order
# skipping protected ways, which it need only do when its first choice is
# protected. Over a recency or RRIP base, whose state is all per set, the
# wrapper takes the lockstep kernel instead (repro.sim.setpath._lockstep).

_ORACLE_MODES = {"victim-exempt": 0, "insert-promote": 1, "both": 2}
_ORACLE_RELEASES = {"budget": 0, "first-share": 1, "never": 2}


def _oracle_count_compact(blocks, cores, hints, sigs, num_sets: int,
                          ways: int, mode: int, release: int, rmax: int,
                          cmax: int, shct):
    """Count-mode SHiP-based oracle replay over flat per-set lists.

    Returns ``(hits, protected_fills, exemptions, releases)`` — the hit
    count plus the wrapper's three study counters, bit-exact against
    ``SharedLlc.access`` driving ``SharingAwareWrapper`` (the differential
    suite pins every (mode, release) cell).
    """
    set_mask = num_sets - 1
    where: dict = {}  # block -> (set, way)
    get = where.get
    blk_rows = [[0] * ways for __ in range(num_sets)]
    rrpv_rows = [[rmax] * ways for __ in range(num_sets)]
    sig_rows = [[0] * ways for __ in range(num_sets)]
    out_rows = [[0] * ways for __ in range(num_sets)]
    budget_rows = [[0] * ways for __ in range(num_sets)]
    core_rows = [[0] * ways for __ in range(num_sets)]
    filled = [0] * num_sets
    hits = protected_fills = exemptions = released = 0
    for i, block in enumerate(blocks):
        entry = get(block)
        if entry is not None:
            s, way = entry
            hits += 1
            rrpv_rows[s][way] = 0
            orow = out_rows[s]
            if not orow[way]:
                orow[way] = 1
                g2 = sig_rows[s][way]
                if shct[g2] < cmax:
                    shct[g2] += 1
            if release != 2:
                brow = budget_rows[s]
                b = brow[way]
                if b > 0 and cores[i] != core_rows[s][way]:
                    b = 0 if release == 1 else b - 1
                    brow[way] = b
                    if b == 0:
                        released += 1
            continue
        s = block & set_mask
        rrow = rrpv_rows[s]
        brow = budget_rows[s]
        f = filled[s]
        if f < ways:
            way = f
            filled[s] = f + 1
        else:
            # SRRIP aging exactly as rank_victims/select_victim do
            # (closed-form delta), then walk descending-RRPV order.
            top = max(rrow)
            if top != rmax:
                delta = rmax - top
                for w in range(ways):
                    rrow[w] += delta
            way = rrow.index(rmax)
            # Only a protected first choice can move: SHiP's first choice
            # is the first way at rmax, which is also the first
            # unprotected way of the descending-RRPV walk when unprotected.
            if mode != 1 and brow[way] > 0:
                best = -1
                for v in range(rmax, -1, -1):
                    for w in range(ways):
                        if rrow[w] == v and brow[w] <= 0:
                            best = w
                            break
                    if best >= 0:
                        break
                if best >= 0 and best != way:
                    way = best
                    exemptions += 1
            del where[blk_rows[s][way]]
            if not out_rows[s][way]:
                g2 = sig_rows[s][way]
                if shct[g2] > 0:
                    shct[g2] -= 1
            brow[way] = 0
        # Fill: base first, then the wrapper's protection bookkeeping and
        # (insert-promote/both) the synthetic promote-hit.
        g = sigs[i]
        sig_rows[s][way] = g
        out_rows[s][way] = 0
        rrow[way] = rmax if shct[g] == 0 else rmax - 1
        h = hints[i]
        brow[way] = h
        core_rows[s][way] = cores[i]
        if h > 0:
            protected_fills += 1
            if mode != 0:
                rrow[way] = 0
                out_rows[s][way] = 1
                if shct[g] < cmax:
                    shct[g] += 1
        blk_rows[s][way] = block
        where[block] = (s, way)
    return hits, protected_fills, exemptions, released


def replay_oracle_nativepath(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy,
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under an unbound SHiP-based oracle wrapper, natively.

    Classification twin of ``LlcOnlySimulator(geometry, policy).run``:
    same hit/miss counts *and* the wrapper's study counters
    (``protected_fills``/``exemptions_applied``/``releases``) written back
    onto the instance — :func:`repro.oracle.runner.run_oracle_variants`
    reads them off the wrapper after the replay, whichever backend ran.
    The wrapper and its base stay unbound. ``policy`` must be a wrapper
    the planner sends to this backend: exact types throughout, an
    annotation hint source, and ``budgets[i + 1]`` the hint of access
    ``i`` of ``stream``.
    """
    base = policy.base
    n = len(stream.blocks)
    start = perf_counter()
    shct = list(base._shct)  # never mutate the caller's instance
    prep_start = perf_counter()
    # budgets[i + 1] is access i's hint.
    hints = policy.hint_source.budgets[1:]
    sigs = _hash_pcs(stream.pcs, base.shct_size - 1)
    if profile is not None:
        profile["native_prepare"] = perf_counter() - prep_start
    kernel_start = perf_counter()
    hits, pf, ex, rel = _oracle_count_compact(
        stream.blocks, stream.cores, hints, sigs, geometry.num_sets,
        geometry.ways, _ORACLE_MODES[policy.mode],
        _ORACLE_RELEASES[policy.release], base.rrpv_max, base.counter_max,
        shct,
    )
    if profile is not None:
        profile["native_kernel"] = perf_counter() - kernel_start
        profile["native_backend"] = BACKEND_COMPACT
    policy.protected_fills += pf
    policy.exemptions_applied += ex
    policy.releases += rel
    return LlcSimResult(
        policy=policy.name,
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=n - hits,
        elapsed_sec=perf_counter() - start,
        tier=REPLAY_SCALAR,
        backend=BACKEND_COMPACT,
    )


# ----------------------------------------------------------------------
# SHiP entry point
# ----------------------------------------------------------------------

def replay_ship_nativepath(
    stream: LlcStream,
    geometry: CacheGeometry,
    policy: ShipPolicy,
    profile=None,
) -> LlcSimResult:
    """Replay ``stream`` under an unbound SHiP instance, natively.

    Drop-in classification twin of
    ``LlcOnlySimulator(geometry, policy).run(stream)``: same hit/miss
    counts (differential-tested, including hypothesis streams), recorded
    with the scalar tier — this is a faster *backend* for that tier, not
    a new tier — and the kernel that produced the counters in
    ``result.backend``. The policy instance is left unbound (the kernel
    reads only its configuration: ``rrpv_max``, SHCT geometry, and the
    initial counter value).

    ``profile``, when a dict, receives ``native_prepare`` /
    ``native_kernel`` wall times and the chosen ``native_backend``.
    """
    start = perf_counter()
    n = len(stream.blocks)
    rmax = policy.rrpv_max
    cmax = policy.counter_max
    sig_mask = policy.shct_size - 1
    shct = list(policy._shct)  # never mutate the caller's instance
    prep_start = perf_counter()
    sigs = _hash_pcs(stream.pcs, sig_mask)
    if profile is not None:
        profile["native_prepare"] = perf_counter() - prep_start
    kernel_start = perf_counter()
    hits = _ship_count_compact(
        stream.blocks, sigs, geometry.num_sets, geometry.ways, rmax,
        cmax, shct,
    )
    if profile is not None:
        profile["native_kernel"] = perf_counter() - kernel_start
        profile["native_backend"] = BACKEND_COMPACT
    return LlcSimResult(
        policy=policy.name,
        stream_name=stream.name,
        accesses=n,
        hits=hits,
        misses=n - hits,
        elapsed_sec=perf_counter() - start,
        tier=REPLAY_SCALAR,
        backend=BACKEND_COMPACT,
    )
