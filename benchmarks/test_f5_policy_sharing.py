"""F5 — Sharing-awareness of existing policies vs. OPT.

Paper analogue (pinned qualitatively): "we characterize the amount of
sharing-awareness enjoyed by recent proposals compared to the optimal
policy." Measured as the fraction of each policy's LLC hits served by
shared residencies: OPT implicitly preserves the useful shared blocks, and
the gap between a realistic policy's shared-hit volume and OPT's is the
sharing the policy fails to exploit.
"""

from benchmarks.conftest import GEOMETRY_4MB, emit, once
from repro.analysis.aggregate import amean
from repro.characterization.hits import SharingClassifier
from repro.policies.registry import make_policy
from repro.sim.multipass import run_opt, run_policy_on_stream

POLICIES = ("lru", "dip", "srrip", "drrip", "ship")


def shared_hits(stream, geometry, policy=None):
    """Shared-residency hits of one planned replay; OPT when ``policy`` is
    None."""
    classifier = SharingClassifier()
    if policy is None:
        run_opt(stream, geometry, observers=(classifier,))
    else:
        run_policy_on_stream(stream, geometry, policy,
                             observers=(classifier,))
    return classifier.breakdown.shared_hits


def test_f5_policy_sharing_awareness(benchmark, context):
    def build_rows():
        rows = []
        for name in context.workload_list:
            stream = context.artifacts(name).stream
            opt_shared = shared_hits(stream, GEOMETRY_4MB)
            row = [name]
            for policy_name in POLICIES:
                policy_shared = shared_hits(
                    stream, GEOMETRY_4MB, make_policy(policy_name, seed=1)
                )
                row.append(policy_shared / opt_shared if opt_shared else 1.0)
            row.append(opt_shared)
            rows.append(row)
        return rows

    rows = once(benchmark, build_rows)
    summary = ["mean"]
    for column in range(1, 1 + len(POLICIES)):
        summary.append(amean([row[column] for row in rows]))
    summary.append("")
    rows.append(summary)
    emit(
        "f5_policy_sharing",
        ["workload", *[f"{p}/opt" for p in POLICIES], "opt_shared_hits"],
        rows,
        title="[F5] Shared-block hits of each policy relative to OPT (4MB); "
              "1.0 = as sharing-aware as optimal",
    )

    mean_row = rows[-1]
    # No existing policy should match OPT's shared-hit volume on average —
    # the gap is the paper's motivation for explicit sharing-awareness.
    for value in mean_row[1:1 + len(POLICIES)]:
        assert value < 0.98
