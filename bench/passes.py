"""The benchmark's four workloads, built from the program's public functions.

Each workload has a ``prepare`` step (outside the pass clock; for the warm
workloads it records the streams the passes read) and a ``run`` step that
produces the workload's tables once: one *pass*. A pass records every
simulated value it produces as a *cell*, so a run can compare its cells
with the pinned reference, and wraps every call into a layer in a span of
that layer. ``check`` holds the invariants and scalar-model spot checks that
hold for any seed.

The apps, geometries, grids and variants mirror the committed artifacts in
``benchmarks/`` (F6, F6b, F1, F7, A1, the T2 grids) so a pass at their size
and seed reproduces their rows.
"""

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.aggregate import amean, append_summary_rows
from repro.analysis.csvout import write_csv
from repro.analysis.tables import render_table
from repro.characterization.report import characterize_stream
from repro.common.config import KB, CacheGeometry, profile
from repro.common.rng import derive_seed
from repro.oracle.runner import (
    run_oracle_study,
    run_oracle_study_grid,
    run_oracle_variants,
)
from repro.policies.registry import make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim.experiment import ExperimentContext
from repro.sim.gridpath import replay_geometry_grid, replay_param_grid
from repro.sim.multipass import (
    record_llc_stream,
    run_opt,
    run_policy_on_stream,
)
from repro.sim.nativepath import BACKEND_COMPACT, BACKEND_NUMBA
from repro.workloads.registry import get_workload

MACHINE = profile("scaled-4mb")
G4 = MACHINE.llc
G8 = profile("scaled-8mb").llc

F6_APPS = ("streamcluster", "canneal", "blackscholes")
POLICY_APPS = ("streamcluster", "canneal", "x264", "ferret")
SWEEP_APPS = ("streamcluster", "canneal", "radix")
ONLINE_APPS = ("streamcluster", "canneal")

POLICIES = ("lru", "dip", "srrip", "drrip", "ship")
ORACLE_BASES = ("lru", "srrip", "drrip", "ship")
ONLINE_POLICIES = ("lru", "srrip", "drrip", "ship")

F7_SWEEP = (
    ("2MB(full)", CacheGeometry(128 * KB, 16)),
    ("4MB(full)", CacheGeometry(256 * KB, 16)),
    ("8MB(full)", CacheGeometry(512 * KB, 16)),
    ("16MB(full)", CacheGeometry(1024 * KB, 16)),
)
A1_VARIANTS = (
    ("both", "budget"),
    ("victim-exempt", "budget"),
    ("insert-promote", "budget"),
    ("both", "first-share"),
    ("both", "never"),
)
WAYS = tuple(range(1, 65))
WAYS_GRID = tuple(
    CacheGeometry(G4.num_sets * w * G4.block_bytes, w, G4.block_bytes)
    for w in WAYS
)
RRPV_BITS = (1, 2, 3, 4)

HIERARCHY_FIELDS = (
    "accesses", "l1_hits", "l2_hits", "llc_hits", "llc_misses", "upgrades",
    "invalidations", "l2_evictions", "writebacks", "inclusion_victims",
)
NATIVE_BACKENDS = (BACKEND_COMPACT, BACKEND_NUMBA)


def geometry_label(geometry: CacheGeometry) -> str:
    """``4MB``/``8MB`` for the paper's two LLCs, the scaled size otherwise."""
    if geometry == G4:
        return "4MB"
    if geometry == G8:
        return "8MB"
    return f"{geometry.size_bytes // KB}KB{geometry.ways}w"


@dataclass
class Config:
    """What one run simulates: ``fast`` False selects the scalar reference."""

    accesses: int
    seed: int
    fast: bool = True

    @property
    def fastpath(self) -> Optional[bool]:
        return None if self.fast else False

    @property
    def native(self) -> Optional[bool]:
        return None if self.fast else False

    def context(self, cache_dir: Optional[Path], apps) -> ExperimentContext:
        return ExperimentContext(MACHINE, self.accesses, self.seed,
                                 workloads=apps, cache_dir=cache_dir)


@dataclass
class Pass:
    """State of one pass: its cells, layer counters and output directory."""

    config: Config
    tracer: object
    out_dir: Path
    cache_dir: Optional[Path] = None
    cells: Dict[str, float] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    contexts: List[ExperimentContext] = field(default_factory=list)

    def call(self, layer: str, func: Callable, *args, app: str = "", **kwargs):
        """Call one public function of ``layer`` inside a span."""
        with self.tracer.span(layer, func.__name__, app):
            return func(*args, **kwargs)

    def context(self, apps) -> ExperimentContext:
        ctx = self.call("sim.experiment", self.config.context,
                        self.cache_dir, apps)
        self.contexts.append(ctx)
        return ctx

    def hierarchy(self, key: str, stats, stream_len: int) -> None:
        """Cells and counters of one hierarchy recording made in this pass."""
        for name in HIERARCHY_FIELDS:
            self.cells[f"{key}/hierarchy/{name}"] = getattr(stats, name)
        self.cells[f"{key}/hierarchy/stream_len"] = stream_len
        self.counts["hierarchy.accesses"] += stats.accesses
        self.counts["hierarchy.llc_misses"] += stats.llc_misses
        self.counts["hierarchy.inclusion_victims"] += stats.inclusion_victims

    def replay(self, app: str, geometry, name: str, result) -> None:
        key = f"{app}/replay@{geometry_label(geometry)}/{name}"
        self.cells[f"{key}/misses"] = result.misses
        self.counts["replay.calls"] += 1
        self.counts["replay.accesses"] += result.accesses

    def oracle(self, app: str, source: str, geometry, base: str, variant,
               study) -> None:
        """Cells of one oracle study; ``source`` names the call that ran it."""
        mode, release = variant
        key = (f"{app}/{source}@{geometry_label(geometry)}/{base}/{mode}/"
               f"{release}")
        self.cells[f"{key}/base_misses"] = study.base.misses
        self.cells[f"{key}/oracle_misses"] = study.oracle.misses
        self.cells[f"{key}/reduction"] = study.miss_reduction
        self.cells[f"{key}/protected_fills"] = study.protected_fills
        self.cells[f"{key}/exemptions"] = study.exemptions
        self.counts["oracle.studies"] += 1
        self.counts["oracle.accesses"] += study.base.accesses
        if study.oracle.backend.split("+")[0] in NATIVE_BACKENDS:
            self.counts["oracle.native"] += 1

    def table(self, name: str, headers, rows, mean_columns=()) -> None:
        """Render and write one table (the analysis layer)."""
        with self.tracer.span("analysis", name):
            if mean_columns:
                append_summary_rows(rows, mean_columns)
            render_table(headers, rows, title=name)
            write_csv(self.out_dir / f"{name}.csv", headers, rows)


# ----------------------------------------------------------------------
# cold_f6: from an empty stream cache to the F6 table
# ----------------------------------------------------------------------

def run_cold(p: Pass) -> None:
    ctx = p.context(F6_APPS)
    rows = []
    for app in F6_APPS:
        artifacts = p.call("sim.experiment", ctx.artifacts, app, app=app)
        p.hierarchy(app, artifacts.hierarchy_stats, len(artifacts.stream))
        row = [app]
        for geometry in (G4, G8):
            study = p.call("oracle", run_oracle_study, artifacts.stream,
                           geometry, base="lru", fastpath=p.config.fastpath,
                           native=p.config.native, app=app)
            p.oracle(app, "study", geometry, "lru", A1_VARIANTS[0], study)
            row += [study.base.miss_ratio, study.oracle.miss_ratio,
                    study.miss_reduction]
        rows.append(row)
    p.table("f6_oracle_gains",
            ["workload", "lru_mr@4MB", "oracle_mr@4MB", "reduction@4MB",
             "lru_mr@8MB", "oracle_mr@8MB", "reduction@8MB"],
            rows, mean_columns=range(1, 7))


def hierarchy_balances(config: Config, cells: Dict, key: str) -> bool:
    """Every access is served by exactly one level, and the stream holds
    exactly the accesses that reached the LLC."""
    c = {name: cells[f"{key}/hierarchy/{name}"]
         for name in (*HIERARCHY_FIELDS, "stream_len")}
    llc = c["llc_hits"] + c["llc_misses"]
    return (c["accesses"] == config.accesses
            == c["l1_hits"] + c["l2_hits"] + llc
            and c["stream_len"] == llc)


def check_cold(config: Config, cells: Dict) -> List[Tuple[str, bool]]:
    checks = []
    for app in F6_APPS:
        checks.append((f"{app}/hierarchy_balances",
                       hierarchy_balances(config, cells, app)))
        # The stream was recorded under LRU at the 4MB LLC, so replaying it
        # under LRU there reproduces the online hierarchy's LLC misses.
        checks.append((f"{app}/lru_replay_matches_hierarchy",
                       cells[f"{app}/study@4MB/lru/both/budget/base_misses"]
                       == cells[f"{app}/hierarchy/llc_misses"]))
    # The oracle on the first app, replayed again on the scalar model.
    app = F6_APPS[0]
    stream = config.context(None, [app]).artifacts(app).stream
    study = run_oracle_study(stream, G4, base="lru", fastpath=False,
                             native=False)
    checks.append((f"{app}/oracle_scalar_spot_check",
                   cells[f"{app}/study@4MB/lru/both/budget/oracle_misses"]
                   == study.oracle.misses))
    return checks


# ----------------------------------------------------------------------
# warm_policies: every replay tier and backend over pre-recorded streams
# ----------------------------------------------------------------------

def run_policies(p: Pass) -> None:
    ctx = p.context(POLICY_APPS)
    policy_rows, f6b_rows, f1_rows = [], [], []
    for app in POLICY_APPS:
        stream = p.call("sim.experiment", ctx.artifacts, app, app=app).stream
        misses = []
        for name in POLICIES:
            result = p.call("sim.replay", run_policy_on_stream, stream, G4,
                            name, seed=p.config.seed,
                            fastpath=p.config.fastpath,
                            native=p.config.native, app=app)
            p.replay(app, G4, name, result)
            misses.append(result.misses)
        result = p.call("sim.replay", run_opt, stream, G4,
                        fastpath=p.config.fastpath, app=app)
        p.replay(app, G4, "opt", result)
        policy_rows.append([app, *misses, result.misses])

        row = [app]
        for base in ORACLE_BASES:
            study = p.call("oracle", run_oracle_study, stream, G8, base=base,
                           fastpath=p.config.fastpath,
                           native=p.config.native, app=app)
            p.oracle(app, "study", G8, base, A1_VARIANTS[0], study)
            row.append(study.miss_reduction)
        f6b_rows.append(row)

        row = [app]
        for geometry in (G4, G8):
            report = p.call("characterization", characterize_stream, stream,
                            geometry, track_phases=False,
                            fastpath=p.config.fastpath, app=app)
            key = f"{app}/characterization@{geometry_label(geometry)}"
            p.cells[f"{key}/misses"] = report.result.misses
            p.cells[f"{key}/shared_hit_fraction"] = (
                report.breakdown.shared_hit_fraction)
            row += [report.breakdown.shared_hit_fraction,
                    1.0 - report.breakdown.shared_hit_fraction]
        f1_rows.append(row)
    p.table("policy_misses", ["workload", *POLICIES, "opt"], policy_rows,
            mean_columns=range(1, 2 + len(POLICIES)))
    p.table("f6b_oracle_bases",
            ["workload", *[f"oracle({b})" for b in ORACLE_BASES]], f6b_rows,
            mean_columns=range(1, 1 + len(ORACLE_BASES)))
    p.table("f1_hit_breakdown",
            ["workload", "shared@4MB", "private@4MB", "shared@8MB",
             "private@8MB"], f1_rows, mean_columns=range(1, 5))


def check_policies(config: Config, cells: Dict) -> List[Tuple[str, bool]]:
    checks = []
    for app in POLICY_APPS:
        opt = cells[f"{app}/replay@4MB/opt/misses"]
        lru = cells[f"{app}/replay@4MB/lru/misses"]
        checks.append((f"{app}/opt_is_optimal", all(
            opt <= cells[f"{app}/replay@4MB/{name}/misses"]
            for name in POLICIES
        )))
        checks.append((f"{app}/characterization_matches_lru",
                       cells[f"{app}/characterization@4MB/misses"] == lru))
        checks.append((f"{app}/oracle_base_matches_lru@8MB",
                       cells[f"{app}/study@8MB/lru/both/budget/base_misses"]
                       == cells[f"{app}/characterization@8MB/misses"]))
    # The dueling and native tiers on the first app, replayed again on
    # the scalar model.
    app = POLICY_APPS[0]
    stream = config.context(None, [app]).artifacts(app).stream
    for name in ("drrip", "ship"):
        result = run_policy_on_stream(stream, G4, name, seed=config.seed,
                                      fastpath=False, native=False)
        checks.append((f"{app}/{name}_scalar_spot_check",
                       cells[f"{app}/replay@4MB/{name}/misses"]
                       == result.misses))
    return checks


# ----------------------------------------------------------------------
# warm_sweep: whole grids over one stream, sharing passes across cells
# ----------------------------------------------------------------------

def run_sweep(p: Pass) -> None:
    ctx = p.context(SWEEP_APPS)
    reductions = {label: [] for label, __ in F7_SWEEP}
    lru_ratios = {label: [] for label, __ in F7_SWEEP}
    variant_reductions = {variant: [] for variant in A1_VARIANTS}
    ways_ratios = {w: [] for w in WAYS}
    rrpv_ratios = {bits: [] for bits in RRPV_BITS}
    for app in SWEEP_APPS:
        stream = p.call("sim.experiment", ctx.artifacts, app, app=app).stream
        studies = p.call("oracle", run_oracle_study_grid, stream,
                         [g for __, g in F7_SWEEP], base="lru",
                         fastpath=p.config.fastpath, native=p.config.native,
                         app=app)
        for (label, geometry), study in zip(F7_SWEEP, studies):
            p.oracle(app, "grid", geometry, "lru", A1_VARIANTS[0], study)
            reductions[label].append(study.miss_reduction)
            lru_ratios[label].append(study.base.miss_ratio)
        studies = p.call("oracle", run_oracle_variants, stream, G8,
                         list(A1_VARIANTS), fastpath=p.config.fastpath,
                         native=p.config.native, app=app)
        for variant, study in zip(A1_VARIANTS, studies):
            p.oracle(app, "variants", G8, "lru", variant, study)
            variant_reductions[variant].append(study.miss_reduction)
        results = p.call("sim.gridpath", replay_geometry_grid, stream,
                         WAYS_GRID, "lru", fastpath=p.config.fastpath, app=app)
        for w, result in zip(WAYS, results):
            p.cells[f"{app}/lru_grid/{w}w/misses"] = result.misses
            ways_ratios[w].append(result.miss_ratio)
        results = p.call("sim.gridpath", replay_param_grid, stream, G4,
                         [SrripPolicy(rrpv_bits=b) for b in RRPV_BITS],
                         fastpath=p.config.fastpath, app=app)
        for bits, result in zip(RRPV_BITS, results):
            p.cells[f"{app}/srrip_grid/{bits}b/misses"] = result.misses
            rrpv_ratios[bits].append(result.miss_ratio)
    with p.tracer.span("analysis", "amean"):
        f7_rows = [
            [label, geometry.num_blocks, amean(lru_ratios[label]),
             amean(reductions[label]), max(reductions[label])]
            for label, geometry in F7_SWEEP
        ]
        a1_rows = [
            [f"{mode}/{release}", amean(values), min(values), max(values)]
            for (mode, release), values in variant_reductions.items()
        ]
        ways_rows = [[w, amean(ways_ratios[w])] for w in WAYS]
        rrpv_rows = [[bits, amean(rrpv_ratios[bits])] for bits in RRPV_BITS]
    p.table("f7_capacity_sweep",
            ["llc_size", "blocks", "avg_lru_mr", "avg_oracle_reduction",
             "max_oracle_reduction"], f7_rows)
    p.table("a1_protection_ablation",
            ["variant", "avg_reduction", "min_reduction", "max_reduction"],
            a1_rows)
    p.table("lru_ways_grid", ["ways", "avg_lru_mr"], ways_rows)
    p.table("srrip_rrpv_grid", ["rrpv_bits", "avg_srrip_mr"], rrpv_rows)


def check_sweep(config: Config, cells: Dict) -> List[Tuple[str, bool]]:
    checks = []
    for app in SWEEP_APPS:
        grid = [cells[f"{app}/lru_grid/{w}w/misses"] for w in WAYS]
        checks.append((f"{app}/lru_grid_inclusion",
                       grid == sorted(grid, reverse=True)))
        checks.append((f"{app}/lru_grid_matches_oracle_base",
                       cells[f"{app}/lru_grid/{G4.ways}w/misses"]
                       == cells[f"{app}/grid@4MB/lru/both/budget/"
                                f"base_misses"]))
        checks.append((f"{app}/grid_study_matches_variant", all(
            cells[f"{app}/grid@8MB/lru/both/budget/{name}"]
            == cells[f"{app}/variants@8MB/lru/both/budget/{name}"]
            for name in ("base_misses", "oracle_misses")
        )))
    # The stacked SRRIP kernel on the first app, replayed again per cell on
    # the scalar model.
    app = SWEEP_APPS[0]
    stream = config.context(None, [app]).artifacts(app).stream
    for bits in (1, 3):
        result = run_policy_on_stream(stream, G4, SrripPolicy(rrpv_bits=bits),
                                      fastpath=False)
        checks.append((f"{app}/srrip{bits}b_scalar_spot_check",
                       cells[f"{app}/srrip_grid/{bits}b/misses"]
                       == result.misses))
    return checks


# ----------------------------------------------------------------------
# online_hierarchy: the online CMP with each LLC policy in the loop
# ----------------------------------------------------------------------

def generate_trace(config: Config, app: str):
    """The app's trace, seeded exactly as the experiment context seeds it."""
    return get_workload(app).generate(
        num_threads=MACHINE.num_cores, scale=MACHINE.scale,
        target_accesses=config.accesses,
        seed=derive_seed(config.seed, "trace", app),
    )


def run_online(p: Pass) -> None:
    rows = []
    for app in ONLINE_APPS:
        trace = p.call("workloads", generate_trace, p.config, app, app=app)
        for name in ONLINE_POLICIES:
            stream, stats = p.call("cache.hierarchy", record_llc_stream,
                                   trace, MACHINE, policy_name=name,
                                   seed=p.config.seed, app=app)
            p.hierarchy(f"{app}/{name}", stats, len(stream))
            rows.append([app, name, stats.llc_misses, stats.llc_miss_ratio,
                         stats.inclusion_victims])
    p.table("online_hierarchy",
            ["workload", "llc_policy", "llc_misses", "llc_mr",
             "inclusion_victims"], rows)


def check_online(config: Config, cells: Dict) -> List[Tuple[str, bool]]:
    checks = [
        (f"{app}/{name}/hierarchy_balances",
         hierarchy_balances(config, cells, f"{app}/{name}"))
        for app in ONLINE_APPS for name in ONLINE_POLICIES
    ]
    # Replaying a recorded stream under its recording policy (same seed) on
    # the scalar model reproduces the online LLC misses.
    app = ONLINE_APPS[0]
    trace = generate_trace(config, app)
    for name in ("lru", "drrip"):
        stream, __ = record_llc_stream(trace, MACHINE, policy_name=name,
                                       seed=config.seed)
        policy = make_policy(name,
                             seed=derive_seed(config.seed, "record", name))
        result = run_policy_on_stream(stream, G4, policy, fastpath=False)
        checks.append((f"{app}/{name}/replay_matches_online",
                       cells[f"{app}/{name}/hierarchy/llc_misses"]
                       == result.misses))
    return checks


@dataclass(frozen=True)
class Workload:
    apps: Tuple[str, ...]
    run: Callable[[Pass], None]
    check: Callable[[Config, Dict], List[Tuple[str, bool]]]
    warm: bool = False
    """Passes read streams that ``prepare`` recorded into the context's
    cache, instead of starting from an empty one."""

    def prepare(self, ctx: ExperimentContext) -> Optional[Path]:
        """Record the warm streams; returns the cache dir passes read."""
        if not self.warm:
            return None
        for app in self.apps:
            ctx.artifacts(app)
        return ctx.cache_dir


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cold_f6": Workload(F6_APPS, run_cold, check_cold),
    "warm_policies": Workload(POLICY_APPS, run_policies, check_policies,
                              warm=True),
    "warm_sweep": Workload(SWEEP_APPS, run_sweep, check_sweep, warm=True),
    "online_hierarchy": Workload(ONLINE_APPS, run_online, check_online),
}
