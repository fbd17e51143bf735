"""A1 — Ablation: oracle protection mechanism and release policy.

Extension experiment for the design choices DESIGN.md calls out: which part
of the oracle's gain comes from victim exemption vs. insertion promotion,
and how much the budget-based release matters compared to protecting for
the whole residency ("never" release) or releasing at the first cross-core
hit ("first-share").

The variant axis is protection-only — it never touches the base replay,
the horizon derivation, or the stream annotation — so the whole grid
runs per stream as one
:func:`repro.oracle.runner.run_oracle_variants` call: one base pass, one
annotation, one wrapped replay per variant.
"""

from benchmarks.conftest import GEOMETRY_8MB, emit, once
from repro.analysis.aggregate import amean
from repro.oracle.runner import run_oracle_variants

VARIANTS = [
    ("both/budget", "both", "budget"),
    ("exempt/budget", "victim-exempt", "budget"),
    ("promote/budget", "insert-promote", "budget"),
    ("both/first-share", "both", "first-share"),
    ("both/never", "both", "never"),
]

WORKLOADS = ("streamcluster", "canneal", "dedup", "barnes", "fmm", "radix",
             "x264", "equake", "bodytrack", "water")


def test_a1_protection_ablation(benchmark, context):
    def build_rows():
        variants = [(mode, release) for __, mode, release in VARIANTS]
        reductions = [[] for __ in VARIANTS]
        for name in WORKLOADS:
            stream = context.artifacts(name).stream
            studies = run_oracle_variants(stream, GEOMETRY_8MB, variants)
            for idx, study in enumerate(studies):
                reductions[idx].append(study.miss_reduction)
        return [
            [label, amean(reductions[idx]), min(reductions[idx]),
             max(reductions[idx])]
            for idx, (label, __, __release) in enumerate(VARIANTS)
        ]

    rows = once(benchmark, build_rows)
    emit(
        "a1_protection_ablation",
        ["variant", "avg_reduction", "min_reduction", "max_reduction"],
        rows,
        title="[A1] Oracle protection-mechanism ablation over the "
              "sharing-heavy workloads (8MB)",
    )

    by_label = {row[0]: row for row in rows}
    default = by_label["both/budget"]
    # Robustness: the default never regresses any workload.
    assert default[2] >= -1e-9
    # "never" release buys a higher raw average on the sharing-heavy apps
    # but at the cost of real regressions (over-protection of blocks whose
    # sharing already completed) — the reason budget release is default.
    assert by_label["both/never"][1] > default[1]
    assert by_label["both/never"][2] < -0.01
    # Victim exemption is the load-bearing mechanism: promotion alone
    # captures essentially nothing of the gain.
    assert by_label["promote/budget"][1] < default[1] * 0.25
