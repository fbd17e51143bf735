"""Measurement loop, metrics and reference check of the benchmark.

One run builds its workload's ``ExperimentContext`` ``SETUP_REPEATS`` times
(the set-up, after the imports), records the warm streams once (the prep,
timed on its own), then repeats the workload's pass for the requested
seconds (at least a few passes) in this process and thread. Every pass starts from a fresh ``ExperimentContext``, a
fresh output directory and an empty annotation memo, as a user's rerun
does. End-to-end metrics come from untraced passes. A traced run
interleaves untraced and traced passes so the per-layer numbers and the
tracing overhead come from the same stretch of host time.
"""

import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from passes import WORKLOADS, Config, Pass
from repro.oracle.runner import annotation_memo_clear, annotation_memo_stats
from repro.policies.base import REPLAY_GRID, REPLAY_TIERS
from repro.sim import telemetry
from spans import NullTracer, Tracer, self_times

ACCESSES = 50_000
"""Trace accesses per app: a quarter of the committed artifacts' 200K, so
that several passes fit in one run."""

SETUP_REPEATS = 3
MIN_ROUNDS = {False: 3, True: 2}
"""Passes (untraced) or untraced+traced pairs (traced) a run makes at least."""

CALIBRATION_ITERATIONS = 1_000_000

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cache_mb": "MB",
}

TIMED_LAYERS = {
    "workloads.gen_s": "workloads",
    "cache.hierarchy.record_s": "cache.hierarchy",
    "sim.experiment.self_s": "sim.experiment",
    "sim.replay.busy_s": "sim.replay",
    "sim.gridpath.busy_s": "sim.gridpath",
    "oracle.busy_s": "oracle",
    "characterization.busy_s": "characterization",
    "analysis.busy_s": "analysis",
}
"""Self-time metrics, by the span layer they sum."""

PER_LAYER = {
    **{name: "s" for name in TIMED_LAYERS},
    "cache.hierarchy.ns_per_access": "ns",
    "cache.hierarchy.llc_misses": "count",
    "cache.hierarchy.inclusion_victims": "count",
    "sim.experiment.bytes_written": "bytes",
    "sim.experiment.disk_hits": "count",
    "sim.experiment.recordings": "count",
    "sim.experiment.corrupt_entries": "count",
    "sim.replay.ns_per_access": "ns",
    "sim.replay.calls": "count",
    "sim.replay.fast_share": "fraction",
    **{f"sim.replay.tier.{tier}": "count"
       for tier in (*REPLAY_TIERS, REPLAY_GRID)},
    "oracle.ns_per_access": "ns",
    "oracle.memo_hits": "count",
    "oracle.memo_misses": "count",
    "oracle.native_share": "fraction",
    "oracle.mean_reduction_4mb": "fraction",
    "oracle.mean_reduction_8mb": "fraction",
    "prep_s": "s",
    "host.calib_s": "s",
    "bench.trace_overhead": "fraction",
    "bench.attributed_share": "fraction",
}


@dataclass
class Sample:
    """One pass: its wall time, bytes written, cells and layer counters
    (the pass's streams are not kept, so memory does not grow per pass)."""

    duration: float
    cache_bytes: int
    table_bytes: int
    cells: Dict[str, float]
    counts: Counter
    tracer: Optional[Tracer] = None


@dataclass
class Result:
    workload: str
    seed: int
    accesses: int
    passes: int
    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    verified: bool
    cells: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    spans: List[List[Dict]] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def digest(self) -> str:
        """Short hash of every cell value (for seeds without a reference)."""
        payload = json.dumps(self.cells, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def dir_bytes(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def load_reference(workload: str, seed: int, accesses: int,
                   path: Path = EXPECTED_PATH) -> Optional[Dict]:
    """The pinned cells of ``workload`` at ``seed``, if any were generated."""
    data = json.loads(path.read_text())
    if data["accesses"] != accesses:
        return None
    return data["seeds"].get(str(seed), {}).get(workload)


def mismatches(cells: Dict, reference: Dict) -> List[str]:
    return sorted(
        key for key in set(cells) | set(reference)
        if key not in cells or key not in reference
        or cells[key] != reference[key]
    )


def host_calibration() -> float:
    """Median time of a fixed pure-Python loop: host speed, for the record."""
    times = []
    for __ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(workload, config: Config,
           cache_dir: Path) -> Tuple[float, float, Optional[Path]]:
    """Median context construction time, prep time, and the cache dir the
    warm passes read (``None``: each pass starts from an empty one)."""
    setups = []
    for __ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ctx = config.context(cache_dir, workload.apps)
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    prep = workload.prepare(ctx)
    return statistics.median(setups), time.perf_counter() - start, prep


def run_pass(workload, config: Config, out_dir: Path, prep: Optional[Path],
             recorder=None) -> Sample:
    """One pass; ``recorder`` is the telemetry run to trace it under."""
    out_dir.mkdir(parents=True)
    cache_dir = prep if prep is not None else out_dir / "cache"
    cache_before = dir_bytes(cache_dir)
    tracer = Tracer() if recorder is not None else None
    p = Pass(config, tracer or NullTracer(), out_dir, cache_dir=cache_dir)
    annotation_memo_clear()
    if recorder is not None:
        recorder.attach_sink(tracer)
    try:
        with telemetry.activate(recorder):
            start = time.perf_counter()
            with p.tracer.span("bench", "pass"):
                workload.run(p)
            duration = time.perf_counter() - start
    finally:
        if recorder is not None:
            recorder.close_sinks()
    cache_bytes = dir_bytes(cache_dir) - cache_before
    table_bytes = dir_bytes(out_dir) - (cache_bytes if prep is None else 0)
    shutil.rmtree(out_dir)
    for ctx in p.contexts:
        p.counts.update({f"experiment.{k}": v
                         for k, v in ctx.cache_stats.as_dict().items()})
    p.counts.update({f"memo.{k}": v
                     for k, v in annotation_memo_stats().items()})
    return Sample(duration, cache_bytes, table_bytes, p.cells, p.counts,
                  tracer)


def layer_metrics(sample: Sample) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    tracer, counts = sample.tracer, sample.counts
    selfs = self_times(tracer.spans)

    def per_access(seconds: float, accesses: int) -> float:
        return seconds / accesses * 1e9 if accesses else 0.0

    def mean_reduction(label: str) -> float:
        suffix = f"@{label}/lru/both/budget/reduction"
        values = [v for k, v in sample.cells.items() if k.endswith(suffix)]
        return statistics.fmean(values) if values else 0.0

    replays = sum(tracer.replay_backends.values())
    metrics = {name: selfs.get(layer, 0.0)
               for name, layer in TIMED_LAYERS.items()}
    metrics.update({
        "cache.hierarchy.ns_per_access": per_access(
            selfs.get("cache.hierarchy", 0.0), counts["hierarchy.accesses"]),
        "cache.hierarchy.llc_misses": counts["hierarchy.llc_misses"],
        "cache.hierarchy.inclusion_victims":
            counts["hierarchy.inclusion_victims"],
        "sim.experiment.bytes_written": sample.cache_bytes,
        "sim.experiment.disk_hits": counts["experiment.disk_hits"],
        "sim.experiment.recordings": counts["experiment.recordings"],
        "sim.experiment.corrupt_entries": counts["experiment.corrupt_entries"],
        "sim.replay.ns_per_access": per_access(
            selfs.get("sim.replay", 0.0), counts["replay.accesses"]),
        "sim.replay.calls": counts["replay.calls"],
        "sim.replay.fast_share": (
            1.0 - tracer.replay_backends["model"] / replays if replays
            else 0.0),
        **{f"sim.replay.tier.{tier}": tracer.replay_tiers[tier]
           for tier in (*REPLAY_TIERS, REPLAY_GRID)},
        "oracle.ns_per_access": per_access(
            selfs.get("oracle", 0.0), counts["oracle.accesses"]),
        "oracle.memo_hits": counts["memo.hits"],
        "oracle.memo_misses": counts["memo.misses"],
        "oracle.native_share": (
            counts["oracle.native"] / counts["oracle.studies"]
            if counts["oracle.studies"] else 0.0),
        "oracle.mean_reduction_4mb": mean_reduction("4MB"),
        "oracle.mean_reduction_8mb": mean_reduction("8MB"),
        "bench.attributed_share": (
            sum(v for layer, v in selfs.items() if layer != "bench")
            / sample.duration),
    })
    return metrics


def span_records(tracer: Tracer) -> List[Dict]:
    return [
        {"layer": s.layer, "name": s.name, "start": s.start, "end": s.end,
         "parent": s.parent, "app": s.app}
        for s in tracer.spans
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 accesses: int = ACCESSES, reference: Optional[Dict] = None,
                 work_root: Path = BENCH_DIR.parent,
                 import_s: float = 0.0) -> Result:
    """Set up, measure and check one workload; all files live under
    ``work_root`` and are removed before this returns."""
    workload = WORKLOADS[name]
    config = Config(accesses, seed)
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=work_root))
    recorder = None
    try:
        setup_s, prep_s, prep = set_up(workload, config, work / "cache")
        if trace:
            recorder = telemetry.create_run(root=work / "runs",
                                            command=f"bench {name}")
        samples: List[Sample] = []
        start = time.perf_counter()
        rounds = 0
        while (rounds < MIN_ROUNDS[trace]
               or time.perf_counter() - start < seconds):
            for traced in ((False, True) if trace else (False,)):
                samples.append(run_pass(
                    workload, config, work / f"pass{len(samples)}", prep,
                    recorder if traced else None,
                ))
            rounds += 1
        checks = workload.check(config, samples[0].cells)
    finally:
        if recorder is not None:
            recorder.finish()
        shutil.rmtree(work, ignore_errors=True)

    untraced = [s for s in samples if s.tracer is None]
    traced = [s for s in samples if s.tracer is not None]
    pass_s = statistics.median(s.duration for s in untraced)
    metrics = {
        "pass_s": pass_s,
        "setup_s": import_s + setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "cache_mb": statistics.median(
            s.cache_bytes + s.table_bytes for s in untraced) / 1e6,
        "prep_s": prep_s,
    }
    if trace:
        per_pass = [layer_metrics(s) for s in traced]
        metrics.update({
            key: statistics.median(m[key] for m in per_pass)
            for key in per_pass[0]
        })
        metrics["host.calib_s"] = host_calibration()
        metrics["bench.trace_overhead"] = (
            statistics.median(s.duration for s in traced) / pass_s - 1.0)
    units = {**END_TO_END, **PER_LAYER}

    cells = samples[0].cells
    problems, attempted = [], 0
    for idx, sample in enumerate(samples):
        against = reference if reference is not None else cells
        if reference is None and idx == 0:
            continue
        attempted += len(set(sample.cells) | set(against))
        problems += [f"pass {idx}: cell {key}"
                     for key in mismatches(sample.cells, against)]
    attempted += len(checks)
    problems += [f"check {label}" for label, ok in checks if not ok]
    return Result(
        workload=name, seed=seed, accesses=accesses, passes=len(untraced),
        metrics={k: (v, units[k]) for k, v in metrics.items()},
        attempted=attempted, failed=len(problems),
        verified=reference is not None, cells=cells,
        problems=problems, spans=[span_records(s.tracer) for s in traced],
    )
