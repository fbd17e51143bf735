"""In-memory spans of the traced benchmark run, and their self times.

A span is one call the benchmark makes into a layer's public function, or a
span the program's own telemetry emits while such a call runs. A layer's self
time is the duration of its spans minus the part of each interval that the
span's child spans cover, so the self times of one pass add up to the pass.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TELEMETRY_LAYERS = {
    "trace_gen": "workloads",
    "hierarchy_record": "cache.hierarchy",
}
"""Program telemetry spans adopted as child spans, by stage name -> layer."""

REPLAY_STAGES = ("replay", "replay_grid")
"""Telemetry span stages that mark one replay (counted, not adopted)."""


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span, if any."""

    layer: str
    name: str
    start: float
    end: float
    parent: Optional[int]
    app: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(interval: Tuple[float, float],
            children: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of
    ``children``."""
    low, high = interval
    total = 0.0
    cursor = low
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: Dict[str, float] = defaultdict(float)
    for idx, span in enumerate(spans):
        totals[span.layer] += span.duration - covered(
            (span.start, span.end), children[idx]
        )
    return dict(totals)


class Tracer:
    """Records spans and counts replays; also a telemetry sink.

    Attach it with ``RunTelemetry.attach_sink`` so the program's
    ``trace_gen``/``hierarchy_record`` spans become children of the
    benchmark span that was open when they ended, and every replay the
    program reports is counted by tier and backend.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self.replay_tiers: Counter = Counter()
        self.replay_backends: Counter = Counter()

    @contextmanager
    def span(self, layer: str, name: str, app: str = ""):
        span = Span(layer, name, time.perf_counter(), 0.0,
                    self._open[-1] if self._open else None, app)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def on_event(self, record: Dict) -> None:
        if record.get("kind") != "span":
            return
        stage = record.get("stage")
        if stage in TELEMETRY_LAYERS:
            # The sink is fed right after the span ends, so "now" is its end.
            end = time.perf_counter()
            self.spans.append(Span(
                TELEMETRY_LAYERS[stage], stage, end - record["duration_s"],
                end, self._open[-1] if self._open else None,
                record.get("workload", ""),
            ))
        elif stage in REPLAY_STAGES:
            self.replay_tiers[record.get("tier")] += 1
            self.replay_backends[record.get("backend")] += 1

    def on_manifest(self, text: str, manifest: Dict) -> None:
        pass

    def close(self) -> None:
        pass


class NullTracer:
    """The untraced stand-in: spans cost one call and record nothing."""

    def span(self, layer: str, name: str, app: str = ""):
        return nullcontext()
