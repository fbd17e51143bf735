"""Differential matrix: every accelerated path against its reference.

Fast tiers vs scalar, promising *bit-identical* results: the accelerated
replays against the scalar ``LlcOnlySimulator`` model, checked for
**every registered policy** plus OPT. The replay planner gives each
policy a tier (``stack`` for plain LRU's stack-distance walk,
``set``/``dueling`` for the set-partitioned kernels, ``scalar`` for SHiP
and wrapped policies; ``tests/sim/test_plan.py`` pins the table); fast
tiers must match the scalar model exactly *and* record the tier that ran,
while scalar-tier policies must never take a fast tier (taking one for a
policy it does not model would be the bug).

The set-dueling tier additionally pins its PSEL reconstruction: the
two-phase replay rebuilds the PSEL time-series from leader misses alone,
and a hypothesis-driven differential checks that series against the PSEL
value the scalar model holds after every single access.

Streams come from real workload models (not synthetic toys), so the
comparison covers sharing, writes, and multi-core interleavings;
hypothesis adds adversarial small streams on top.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.policies.registry import POLICY_NAMES, make_policy
from repro.sim.experiment import ExperimentContext
from repro.sim.fastpath import replay_lru_fastpath
from repro.sim.multipass import run_opt, run_policy_on_stream
from repro.sim.setpath import reconstruct_psel_series
from tests.conftest import make_stream


@pytest.fixture(scope="module")
def stream(request):
    """One real recorded LLC stream (dedup: shared hash tables, writes)."""
    from repro.common.config import CacheGeometry, MachineConfig

    machine = MachineConfig(
        name="diff", num_cores=4,
        l1=CacheGeometry(512, 4), l2=CacheGeometry(1024, 4),
        llc=CacheGeometry(8192, 8), scale=1024,
    )
    context = ExperimentContext(
        machine, target_accesses=12_000, seed=9, workloads=["dedup"],
    )
    return context.artifacts("dedup").stream


@pytest.fixture(scope="module")
def geometry():
    from repro.common.config import CacheGeometry

    return CacheGeometry(8192, 8, 64)  # 16 sets x 8 ways


EXPECTED_TIERS = {
    "lru": "stack",
    "lip": "set",
    "bip": "set",
    "dip": "dueling",
    "srrip": "set",
    "brrip": "set",
    "drrip": "dueling",
    "nru": "set",
    "random": "set",
    "ship": "scalar",
}


class TestFastTiersVsScalar:
    @pytest.mark.parametrize("policy", sorted(POLICY_NAMES))
    def test_policy_fast_tier_matches_scalar(self, stream, geometry, policy):
        fast = run_policy_on_stream(
            stream, geometry, policy, seed=0, fastpath=True
        )
        scalar = run_policy_on_stream(
            stream, geometry, policy, seed=0, fastpath=False
        )
        # LlcSimResult equality covers accesses/hits/misses/evictions and
        # excludes wall-clock and tier fields.
        assert fast == scalar
        # The tier that actually ran is recorded on the result: declared
        # fast tiers must not silently fall back, and scalar-only
        # policies (SHiP: globally-coupled SHCT) must demonstrably have
        # replayed through the scalar model.
        assert fast.tier == EXPECTED_TIERS[policy]
        assert scalar.tier == "scalar"

    def test_opt_fast_tier_matches_scalar(self, stream, geometry):
        fast = run_opt(stream, geometry, fastpath=True)
        scalar = run_opt(stream, geometry, fastpath=False)
        assert fast == scalar
        assert fast.tier == "set"
        assert scalar.tier == "scalar"

    def test_fastpath_replay_matches_scalar_directly(self, stream, geometry):
        fast = replay_lru_fastpath(stream, geometry)
        scalar = run_policy_on_stream(
            stream, geometry, "lru", seed=0, fastpath=False
        )
        assert fast == scalar


def _scalar_psel_trace(stream, geometry, policy):
    """PSEL after every access, from the scalar reference model."""
    from repro.cache.llc import SharedLlc

    llc = SharedLlc(geometry, policy)
    access = llc.access
    trace = []
    for core, pc, block, write in zip(*stream.columns()):
        access(core, pc, block, write != 0)
        trace.append(policy.duel.psel)
    return trace


class TestPselReconstruction:
    """The dueling tier's PSEL series vs the scalar model, access by access."""

    @pytest.mark.parametrize("policy", ["dip", "drrip"])
    def test_series_matches_scalar_on_real_stream(
        self, stream, geometry, policy
    ):
        trace = _scalar_psel_trace(stream, geometry, make_policy(policy, seed=3))
        positions, values = reconstruct_psel_series(
            stream, geometry, make_policy(policy, seed=3)
        )
        assert len(values) == len(positions) + 1
        assert positions == sorted(positions)
        for p in range(0, len(trace), 97):  # stride keeps the check O(n/97)
            assert values[bisect_right(positions, p)] == trace[p], p
        assert values[-1] == trace[-1]

    @settings(max_examples=30, deadline=None)
    @given(
        policy=st.sampled_from(["dip", "drrip"]),
        seed=st.integers(0, 7),
        accesses=st.lists(
            st.tuples(
                st.integers(0, 3),           # core
                st.sampled_from([0x10, 0x20, 0x30]),  # pc
                st.integers(0, 63),          # block
                st.booleans(),               # write
            ),
            min_size=1, max_size=300,
        ),
    )
    def test_series_matches_scalar_on_random_streams(
        self, policy, seed, accesses
    ):
        from repro.common.config import CacheGeometry

        geometry = CacheGeometry(8 * 2 * 64, 2)  # 8 sets x 2 ways
        small = make_stream(accesses)
        trace = _scalar_psel_trace(small, geometry, make_policy(policy, seed=seed))
        positions, values = reconstruct_psel_series(
            small, geometry, make_policy(policy, seed=seed)
        )
        for p, expected in enumerate(trace):
            assert values[bisect_right(positions, p)] == expected, p

