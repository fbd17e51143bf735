"""Result records for simulation runs."""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.stats import ratio


@dataclass(frozen=True)
class LlcSimResult:
    """Outcome of replaying one LLC stream under one policy.

    ``elapsed_sec``/``accesses_per_sec`` report replay throughput; they are
    excluded from equality so that determinism checks (bit-identical
    results across serial and parallel runs) compare outcomes, not clocks.
    ``tier`` records which replay engine produced the result (one of
    :data:`repro.policies.base.REPLAY_TIERS`); it too is excluded from
    equality — the whole point of the differential suite is that tiers
    agree on everything else. ``backend`` refines the provenance one step
    further: *which kernel implementation* inside that tier produced the
    counters (``model`` for the scalar object model, ``python``/``numpy``
    for the set-partitioned and fastpath kernels, ``compact`` for the
    native scalar backend). Like ``tier`` it is excluded from equality.
    ``reason`` says why a faster engine declined the replay (one token of
    :data:`repro.sim.plan.REASONS`, ``""`` when none did); it is
    excluded from equality too.
    """

    policy: str
    stream_name: str
    accesses: int
    hits: int
    misses: int
    elapsed_sec: float = field(default=0.0, compare=False, repr=False)
    tier: str = field(default="scalar", compare=False)
    backend: str = field(default="model", compare=False)
    reason: str = field(default="", compare=False)

    @property
    def accesses_per_sec(self) -> float:
        """Replay throughput (0.0 when the run was not timed)."""
        if self.elapsed_sec <= 0.0:
            return 0.0
        return self.accesses / self.elapsed_sec

    @property
    def miss_ratio(self) -> float:
        """Misses per access."""
        return ratio(self.misses, self.accesses)

    @property
    def hit_ratio(self) -> float:
        """Hits per access."""
        return ratio(self.hits, self.accesses)

    def miss_reduction_vs(self, baseline: "LlcSimResult") -> float:
        """Fractional miss reduction relative to ``baseline``.

        Positive means fewer misses than the baseline. Streams must match
        for the comparison to be meaningful; callers enforce that.
        """
        return ratio(baseline.misses - self.misses, baseline.misses)

    def as_dict(self) -> Dict:
        """JSON-friendly view (telemetry events, golden fixtures)."""
        return {
            "policy": self.policy,
            "stream": self.stream_name,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_ratio": self.miss_ratio,
            "tier": self.tier,
            "backend": self.backend,
            "reason": self.reason,
        }


@dataclass
class PolicyComparison:
    """Results of several policies over one identical stream."""

    stream_name: str
    results: Dict[str, LlcSimResult]

    def miss_reduction(self, policy: str, baseline: str = "lru") -> float:
        """Miss reduction of ``policy`` relative to ``baseline``."""
        return self.results[policy].miss_reduction_vs(self.results[baseline])

    def policies(self):
        """Policy names present, insertion-ordered."""
        return list(self.results)

    def as_dict(self) -> Dict:
        """JSON-friendly view (telemetry events, golden fixtures)."""
        return {
            "stream": self.stream_name,
            "results": {name: result.as_dict()
                        for name, result in self.results.items()},
        }


@dataclass(frozen=True)
class CellFailure:
    """A cell of the experiment matrix that exhausted its retry budget.

    In graceful (non-fail-fast) runs these stand in for the missing result
    in the position the real record would have occupied, so callers can
    tell exactly which (kind, workload, params) cells are absent. They are
    also what the run manifest's ``failures`` list serialises.
    """

    kind: str
    workload: str
    params: tuple
    error_type: str
    error: str
    attempts: int

    def as_dict(self) -> Dict:
        """JSON-friendly view for the run manifest."""
        return {
            "kind": self.kind,
            "workload": self.workload,
            "params": repr(self.params),
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
        }


def is_failure(result) -> bool:
    """True when a cell result slot holds a :class:`CellFailure`."""
    return isinstance(result, CellFailure)


def split_failures(results: Dict) -> "Tuple[Dict, List[CellFailure]]":
    """Partition a keyed result mapping into (successes, failures)."""
    ok, failed = {}, []
    for key, value in results.items():
        if is_failure(value):
            failed.append(value)
        else:
            ok[key] = value
    return ok, failed
