"""The fast-path gate and the one LRU stack-distance walk.

Every fast replay tier (:mod:`repro.sim.setpath`, :mod:`repro.sim.gridpath`
and the native backends behind :mod:`repro.sim.nativepath`) is
bit-identical to the scalar :class:`repro.cache.llc.SharedLlc` model, so
the only reason to turn one off is to check that claim.
``REPRO_SIM_NO_FASTPATH=1`` (or ``--no-fastpath`` on the CLI) forces the
scalar model everywhere; :func:`fastpath_enabled` resolves that gate.

LRU is a *stack algorithm* (Mattson et al., IBM Systems Journal 1970): the
blocks resident in a ``ways``-way set are always the ``ways`` most recently
used distinct blocks of that set, for every associativity simultaneously.
The hit/miss outcome of each access is therefore a pure function of its
per-set *stack distance* — the number of distinct blocks of the same set
touched since the previous access to the same block: ``hit iff distance <
ways``. :func:`lru_stack_distances` is the one walk that computes it. It
serves what depends on distances rather than on one cache's contents: a
whole LRU associativity grid (:mod:`repro.sim.gridpath`), the reuse
probe's histogram (:mod:`repro.sim.probes`) and the miss-ratio curve
(:mod:`repro.analysis.mrc`, one set of ``max_depth`` ways). A single LRU
replay, with or without observers, runs the set tier's lockstep kernel
like every other per-set policy.
"""

from array import array
from typing import Optional, Sequence

from repro.common.envflag import env_flag

FASTPATH_ENV = "REPRO_SIM_NO_FASTPATH"
"""Environment variable disabling the fast replay tiers when set truthy.

Parsed by :func:`repro.common.envflag.env_flag`: ``=0``/``=false``/``=no``
count as unset (the fast path stays on), anything else disables it.
"""


def fastpath_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the three-state fast-path gate.

    ``None`` (auto) enables the fast path unless :data:`FASTPATH_ENV` is
    set truthy in the environment (:func:`env_flag` semantics — ``=0`` and
    ``=false`` count as unset); ``True``/``False`` force it on/off
    regardless.
    """
    if flag is not None:
        return flag
    return not env_flag(FASTPATH_ENV)


def lru_stack_distances(
    blocks: Sequence[int], num_sets: int, ways: int
) -> array:
    """Capped per-set LRU stack distance of every access.

    Returns an ``array('i')``: exact distances in ``[0, ways)`` for hits
    and the sentinel ``ways`` for any access whose distance is ``>= ways``
    (cold misses included). ``hit iff distances[i] < ways`` is the exact
    outcome of a ``ways``-way LRU replay — and, by Mattson inclusion,
    ``hit iff distances[i] < w`` is the exact outcome for **every**
    ``w <= ways`` at the same ``num_sets``, which is what the grid layer
    thresholds a whole associativity sweep against.

    The per-set stack lists are kept MRU-first, so ``st.index`` both *is*
    the stack distance and stops after ``distance`` comparisons
    (temporally local accesses resolve in a couple of steps instead of
    scanning most of a ``ways``-deep stack), and membership is tested
    against a per-set ``set`` shadow, so a miss costs one O(1) probe
    instead of a full-stack scan.
    """
    set_mask = num_sets - 1
    distances = []
    push = distances.append
    stacks = [[] for __ in range(num_sets)]
    members = [set() for __ in range(num_sets)]
    for block in blocks.tolist() if isinstance(blocks, array) else blocks:
        s = block & set_mask
        st = stacks[s]
        if block in members[s]:
            idx = st.index(block)
            push(idx)
            del st[idx]
        else:
            push(ways)
            mem = members[s]
            if len(st) == ways:
                mem.discard(st.pop())
            mem.add(block)
        st.insert(0, block)
    return array("i", distances)
