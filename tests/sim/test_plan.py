"""The replay planner's decisions, pinned row by row.

One table says which engine serves each replay of the benchmark's mix —
every registered policy, OPT, SHiP with the sharing classifier that
computes the oracle's shared-fill fraction, and the sharing oracle over
each base — plus one row per remaining decline reason and per refused
replay. Each row is checked twice: as the planner's decision, and as the
tier, backend and reason the executor stamps on the result after it
actually ran the replay. A replay that silently fell back to the object
model would change its row, so this is the deterministic "no silent
fallback" check. Every row passes its gates explicitly, so the rows hold
whatever ``REPRO_SIM_NO_NATIVE``/``REPRO_SIM_NO_FASTPATH`` say.
"""

import pytest

from repro.characterization.hits import SharingClassifier
from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError
from repro.oracle.annotate import AnnotationHintSource, build_stream_annotation
from repro.oracle.wrapper import SharingAwareWrapper
from repro.policies.base import REPLAY_TIERS
from repro.policies.opt import BeladyOptPolicy, compute_next_use
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.policies.rrip import SrripPolicy
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.multipass import run_policy_on_stream
from repro.sim.nativepath import NO_NATIVE_ENV
from repro.sim.plan import REASONS, REPLAY_KERNELS, ReplayPlan, plan_replay
from repro.sim.probes import Probe, make_probe, run_probed_replay
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
        make_policy(base), AnnotationHintSource(budgets), "both",
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


MISALIGNED = "misaligned oracle annotation"
"""The expected plan of a row the planner refuses: its SimulationError
message starts with this text."""


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
                    observers=lambda: (SharingClassifier(),)),
    **{f"oracle({base})": row(lambda base=base: oracle(base), SET)
       for base in ("lru", "lip", "bip", "srrip", "brrip")},
    **{f"oracle({base})": row(lambda base=base: oracle(base), DUELING)
       for base in ("dip", "drrip")},
    # The lockstep kernel is not behind the native gate.
    "oracle(lru) native off": row(lambda: oracle("lru"), SET, native=False),
    "oracle(ship)": row(lambda: oracle("ship"), COMPACT),
    "oracle(nru)": row(lambda: oracle("nru"), model("no-kernel")),
    "lru fastpath off": row(lambda: make_policy("lru"),
                            model("fastpath-off"), fastpath=False),
    "bound srrip": row(lambda: bound("srrip"), model("bound")),
    "subclassed srrip": row(TweakedSrrip, model("no-kernel")),
    "oracle closure hints": row(
        lambda: SharingAwareWrapper(make_policy("lru"),
                                    lambda llc, c, b, pc: 0, "both"),
        model("hint-source")),
    "oracle misaligned": row(lambda: oracle("lru", BUDGETS[:100]),
                             MISALIGNED),
    "oracle misaligned long": row(
        lambda: oracle("lru", BUDGETS + BUDGETS[:300]), MISALIGNED),
    "ship native off": row(lambda: make_policy("ship"), model("native-off"),
                           native=False),
    # The rrpv probe binds only to RRIP policies; without it SRRIP would
    # take the set tier.
    "srrip+rrpv probe": row(lambda: make_policy("srrip"), model("probe"),
                            observers=lambda: (make_probe("rrpv"),)),
}


EXECUTOR_REFUSES = {"bound srrip": "bound twice"}
"""Rows the planner plans but the executor refuses: the object model will
not bind a policy that is already bound."""


@pytest.mark.parametrize("row", sorted(ROWS))
def test_plan(row):
    policy, expected, observers, fastpath, native = ROWS[row]
    if expected == MISALIGNED:
        with pytest.raises(SimulationError, match=MISALIGNED):
            plan_replay(policy(), observers(), STREAM, fastpath, native)
        return
    plan = plan_replay(policy(), observers(), STREAM, fastpath, native)
    assert plan == ReplayPlan(*expected)


def execute(row):
    """Run one row's replay; return the (tier, backend, reason) it stamped."""
    policy, __, observers, fastpath, native = ROWS[row]
    policy, observers = policy(), observers()
    if any(isinstance(o, Probe) for o in observers):
        # A probe is not a residency observer: probed replays have their
        # own runner.
        report = run_probed_replay(STREAM, GEOMETRY, policy.name, observers,
                                   fastpath=fastpath)
        return report.tier, report.result.backend, report.reason
    result = run_policy_on_stream(STREAM, GEOMETRY, policy,
                                  observers=observers, fastpath=fastpath,
                                  native=native)
    return result.tier, result.backend, result.reason


@pytest.mark.parametrize("row", sorted(ROWS))
def test_executed_replay_matches_plan(row):
    expected = ROWS[row][1]
    refusal = MISALIGNED if expected == MISALIGNED \
        else EXECUTOR_REFUSES.get(row)
    if refusal is not None:
        with pytest.raises(SimulationError, match=refusal):
            execute(row)
        return
    assert execute(row) == expected


def test_rows_cover_every_policy_tier_and_reason():
    assert set(POLICY_NAMES) <= set(ROWS)
    planned = {expected for __, expected, *___ in ROWS.values()
               if expected != MISALIGNED}
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
