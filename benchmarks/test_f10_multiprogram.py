"""F10 — Multi-threaded vs. multi-programmed contrast (extension).

The paper's opening argument: prior LLC proposals target multi-programmed
workloads (independent programs on disjoint cores) where all cross-core
interaction is destructive; multi-threaded applications additionally have
*constructive* sharing that those proposals ignore. This bench runs the
sharing oracle on multi-programmed mixes built from the same application
models and shows its gains vanish — sharing-awareness is a property of
multi-threaded workloads specifically.
"""

from benchmarks.conftest import BENCH_SEED, GEOMETRY_8MB, emit, once
from repro.analysis.aggregate import amean
from repro.oracle.runner import run_oracle_study, shared_fill_fraction
from repro.sim.multipass import record_llc_stream
from repro.workloads.multiprogram import MultiprogramMix

MIXES = [
    ("swaptions", "blackscholes"),
    ("swaptions", "canneal"),
    ("blackscholes", "dedup"),
    ("canneal", "equake"),
]

MULTITHREADED_REFERENCE = ("streamcluster", "dedup", "canneal", "barnes")


def test_f10_multiprogram_vs_multithreaded(benchmark, context):
    def build_rows():
        rows = []
        for names in MIXES:
            mix = MultiprogramMix(names)
            trace = mix.generate(
                num_threads=context.machine.num_cores,
                scale=context.machine.scale,
                target_accesses=context.target_accesses,
                seed=BENCH_SEED,
            )
            stream, __ = record_llc_stream(trace, context.machine)
            study = run_oracle_study(stream, GEOMETRY_8MB)
            rows.append([
                mix.name, "multiprogram", study.base.miss_ratio,
                shared_fill_fraction(stream, GEOMETRY_8MB),
                study.miss_reduction,
            ])
        for name in MULTITHREADED_REFERENCE:
            stream = context.artifacts(name).stream
            study = run_oracle_study(stream, GEOMETRY_8MB)
            rows.append([
                name, "multithreaded", study.base.miss_ratio,
                shared_fill_fraction(stream, GEOMETRY_8MB),
                study.miss_reduction,
            ])
        return rows

    rows = once(benchmark, build_rows)
    emit(
        "f10_multiprogram",
        ["workload", "kind", "lru_mr", "shared_fills", "oracle_reduction"],
        rows,
        title="[F10] Sharing-oracle gains: multi-programmed mixes vs "
              "multi-threaded apps (8MB)",
    )

    mix_gains = [row[4] for row in rows if row[1] == "multiprogram"]
    multithreaded_gains = [row[4] for row in rows if row[1] == "multithreaded"]
    # Multi-programmed mixes: no cross-program sharing, so the oracle has
    # little to protect (residual gains come only from sharing *within* a
    # multi-threaded component of the mix).
    assert amean(mix_gains) < amean(multithreaded_gains) * 0.5
    assert all(gain > -0.03 for gain in mix_gains)
