"""The replay planner's decisions, pinned row by row.

One table says which engine serves each replay of the benchmark's mix —
every registered policy, OPT, SHiP with the oracle base pass's residency
log, and the sharing oracle over each base — plus one row per remaining
decline reason. A replay that silently fell back to the object model
would change its row, so this is the deterministic "no silent fallback"
check. ``plan_replay`` takes resolved gates, so the rows hold whatever
``REPRO_SIM_NO_NATIVE``/``REPRO_SIM_NO_FASTPATH`` say.
"""

import pytest

from repro.common.config import CacheGeometry
from repro.oracle.annotate import build_stream_annotation, oracle_hint_source
from repro.oracle.residency import FillSharingLog
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.base import REPLAY_TIERS
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.nativepath import NO_NATIVE_ENV
from repro.sim.plan import REASONS, REPLAY_KERNELS, ReplayPlan, plan_replay
from repro.sim.probes import make_probe
from tests.conftest import make_stream

GEOMETRY = CacheGeometry(16 * 4 * 64, 4)
STREAM = make_stream([
    (i % 4, 0x400 + (i % 6) * 0x1C, (i * 5 + (i // 11) * 2) % 130,
     i % 7 == 0)
    for i in range(600)
])
BUDGETS = build_stream_annotation(STREAM, GEOMETRY, horizon_factor=4)


def oracle(base, budgets=BUDGETS):
    return SharingAwareWrapper(
        make_policy(base), oracle_hint_source(budgets), "both",
    )


def bound(name):
    policy = make_policy(name)
    policy.bind(GEOMETRY)
    return policy


class TweakedSrrip(SrripPolicy):
    name = "tweaked-srrip"


STACK = ("stack", "python", "")
SET = ("set", "numpy", "")
DUELING = ("dueling", "numpy", "")
COMPACT = ("scalar", "compact", "")


def model(reason):
    return ("scalar", "model", reason)


def row(policy, plan, observers=tuple, fastpath=True, native=True):
    """A policy factory, its expected plan, and the planner's other inputs."""
    return policy, plan, observers, fastpath, native


ROWS = {
    "lru": row(lambda: make_policy("lru"), STACK),
    **{name: row(lambda name=name: make_policy(name), SET)
       for name in ("lip", "bip", "srrip", "brrip", "nru", "random")},
    "opt": row(lambda: BeladyOptPolicy(compute_next_use(STREAM.blocks)), SET),
    "dip": row(lambda: make_policy("dip"), DUELING),
    "drrip": row(lambda: make_policy("drrip"), DUELING),
    "ship": row(lambda: make_policy("ship"), COMPACT),
    "ship+log": row(lambda: make_policy("ship"), model("observers"),
                    observers=lambda: (FillSharingLog(len(STREAM)),)),
    **{f"oracle({base})": row(lambda base=base: oracle(base), COMPACT)
       for base in ("lru", "srrip", "ship")},
    "oracle(drrip)": row(lambda: oracle("drrip"), model("no-kernel")),
    "lru fastpath off": row(lambda: make_policy("lru"),
                            model("fastpath-off"), fastpath=False),
    "bound srrip": row(lambda: bound("srrip"), model("bound")),
    "subclassed srrip": row(TweakedSrrip, model("no-kernel")),
    "oracle closure hints": row(
        lambda: SharingAwareWrapper(make_policy("lru"),
                                    lambda llc, c, b, pc: 0, "both"),
        model("hint-source")),
    "oracle misaligned": row(lambda: oracle("lru", BUDGETS[:100]),
                             model("misaligned")),
    "ship native off": row(lambda: make_policy("ship"), model("native-off"),
                           native=False),
    "lru+rrpv probe": row(lambda: make_policy("lru"), model("probe"),
                          observers=lambda: (make_probe("rrpv"),)),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_plan(row):
    policy, expected, observers, fastpath, native = ROWS[row]
    plan = plan_replay(policy(), observers(), STREAM, fastpath, native)
    assert plan == ReplayPlan(*expected)


def test_rows_cover_every_policy_tier_and_reason():
    assert set(POLICY_NAMES) <= set(ROWS)
    planned = {expected for __, expected, *___ in ROWS.values()}
    assert {tier for tier, __, ___ in planned} == set(REPLAY_TIERS)
    assert {reason for *__, reason in planned} == {"", *REASONS}
    assert {cls.name for cls in REPLAY_KERNELS} <= set(ROWS)


def test_plan_is_pure(monkeypatch):
    # The planner reads no environment variable and binds nothing.
    monkeypatch.setenv(NO_NATIVE_ENV, "1")
    monkeypatch.setenv(FASTPATH_ENV, "1")
    for name in ("ship", "srrip"):
        policy = make_policy(name)
        assert plan_replay(policy, (), STREAM, True, True).reason == ""
        assert policy.geometry is None
