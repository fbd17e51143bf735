"""LLC-only replay simulator.

Replays a recorded :class:`repro.cache.LlcStream` against a single
:class:`SharedLlc`. Because the stream was fixed by the recording pass,
every policy replayed this way sees identical accesses — the property OPT,
the oracle, and fair policy comparisons all rely on.

This model loop is also the *reference semantics* of every accelerated
replay tier: the stack fast path, the set-partitioned and dueling kernels
(:mod:`repro.sim.setpath`), and the native scalar/oracle backends
(:mod:`repro.sim.nativepath`) are all required to reproduce, bit for bit,
what this loop produces — hit/miss counts, per-set decision order, and
(for the oracle wrapper) the study counters. Results therefore carry
provenance: this simulator stamps ``backend="model"``; accelerated paths
stamp their tier/backend (``compact``/``numpy``/``python``). The replay
planner (:func:`repro.sim.plan.plan_replay`) lands here whenever it
declines every faster engine, ``fastpath=False``/``native=False`` and the
``REPRO_SIM_NO_*`` toggles included, and
:func:`repro.sim.multipass.run_policy_on_stream` emits the replay's span.
Stream columns are duck-typed — ``array.array`` from the stream
recorder, numpy views after a zero-copy load — and the loop only relies
on iteration and ``!=``, which both provide.
"""

from time import perf_counter
from typing import Tuple

from repro.cache.llc import SharedLlc
from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.policies.base import ReplacementPolicy
from repro.sim.results import LlcSimResult


class LlcOnlySimulator:
    """Drives one policy over recorded LLC streams."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        observers: Tuple = (),
    ):
        self.llc = SharedLlc(geometry, policy, observers=observers)

    def run(
        self, stream: LlcStream, flush: bool = True, profile=None
    ) -> LlcSimResult:
        """Replay ``stream`` to completion.

        The hot loop zips the four columns instead of indexing each per
        position (four fewer ``__getitem__`` calls per access) and hoists
        the access method into a local. The result records replay
        throughput as ``accesses_per_sec``.

        Args:
            stream: the recorded LLC demand stream.
            flush: notify observers of still-live residencies afterwards.
            profile: optional dict receiving per-stage wall times
                (``replay_loop``, ``flush``) for the replay profiler;
                ``None`` (the default) times nothing beyond the loop.
        """
        access = self.llc.access
        start = perf_counter()
        for core, pc, block, write in zip(*stream.columns()):
            access(core, pc, block, write != 0)
        elapsed = perf_counter() - start
        if flush:
            flush_start = perf_counter()
            self.llc.flush_residencies()
            if profile is not None:
                profile["flush"] = perf_counter() - flush_start
        if profile is not None:
            profile["replay_loop"] = elapsed
        return LlcSimResult(
            policy=self.llc.policy.name,
            stream_name=stream.name,
            accesses=self.llc.access_count,
            hits=self.llc.hits,
            misses=self.llc.misses,
            elapsed_sec=elapsed,
            backend="model",
        )
