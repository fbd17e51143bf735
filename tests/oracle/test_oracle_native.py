"""Differential tests for the oracle wrapper's replay kernels.

An annotation-fed :class:`SharingAwareWrapper` over an exact-type base
replays on a kernel of its own: over a recency or RRIP base, whose state
is all per set, the lockstep kernel (``set``/``numpy`` over LRU, LIP,
BIP, SRRIP and BRRIP, ``dueling``/``numpy`` over DIP and DRRIP, whatever
the native gate says); over SHiP, whose SHCT is global, the scalar tier's
compact kernel (``scalar``/``compact``). Each must reproduce the scalar
object model bit for bit — hit/miss counts *and* the wrapper's study
counters (``protected_fills``, ``exemptions_applied``, ``releases``) —
across every protection mode and release policy. Anything the replay
planner cannot prove safe (bound instances, undeclared subclasses,
closure hint sources, observers, NRU/Random/OPT bases) must land on the
object model, recorded as ``backend == "model"`` with the planner's
decline reason. An annotation built for another stream is refused
outright.
"""

import gc
from array import array

import pytest
from hypothesis import given, settings

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError, SimulationError
from repro.oracle.annotate import AnnotationHintSource, build_stream_annotation
from repro.oracle.runner import (
    ANNOTATION_MEMO_CAPACITY,
    annotation_memo_clear,
    annotation_memo_stats,
    run_oracle_study,
    stream_annotation,
)
from repro.oracle.wrapper import (
    PROTECTION_MODES,
    RELEASE_POLICIES,
    SharingAwareWrapper,
)
from repro.policies.dip import DipPolicy
from repro.policies.registry import make_policy
from repro.policies.rrip import DrripPolicy
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.gridpath import replay_geometry_grid
from repro.sim.multipass import run_policy_on_stream
from repro.sim.nativepath import NO_NATIVE_ENV, replay_oracle_nativepath
from repro.sim.plan import plan_replay
from repro.sim.setpath import reconstruct_setpath_replay
from tests.conftest import make_stream
from tests.strategies import SIGNATURE_PCS, geometries, replay_stream_lists

SEED = 23
BASES = ("lru", "lip", "bip", "srrip", "brrip", "dip", "drrip", "ship")
ENGINES = {
    **{base: ("set", "numpy")
       for base in ("lru", "lip", "bip", "srrip", "brrip")},
    "dip": ("dueling", "numpy"),
    "drrip": ("dueling", "numpy"),
    "ship": ("scalar", "compact"),
}
"""The tier and backend an annotation-fed wrapper over each base takes."""
LOCKSTEP_BASES = [base for base in BASES if ENGINES[base][1] == "numpy"]
ONE_SET_REFUSAL = r"cannot place 2\*1 leader sets in 1 sets"
"""What both engines raise for a dueling base on a one-set geometry."""
GEOMETRY = CacheGeometry(16 * 4 * 64, 4)


@pytest.fixture(autouse=True)
def _auto_gates(monkeypatch):
    """Pin the fastpath and native env gates to their unset-auto default."""
    monkeypatch.delenv(FASTPATH_ENV, raising=False)
    monkeypatch.delenv(NO_NATIVE_ENV, raising=False)


def shared_stream(n=2500, spread=130, cores=4, high=0):
    """A deterministic multi-core stream with genuine cross-core reuse.

    ``high`` sets block address bits above the low ones, so addresses can
    exceed any set mask.
    """
    accesses = []
    for i in range(n):
        block = (i * 5 + (i // 11) * 2) % spread
        pc = 0x400000 + ((i * 13) % 6) * 0x1C
        accesses.append((i % cores, pc, block | high, i % 7 == 0))
    return make_stream(accesses)


def make_wrapper(base, budgets, mode="both", release="budget"):
    return SharingAwareWrapper(
        make_policy(base, seed=SEED), AnnotationHintSource(budgets),
        mode, release=release,
    )


def counters(wrapper):
    values = (
        wrapper.protected_fills,
        wrapper.exemptions_applied,
        wrapper.releases,
    )
    assert all(type(value) is int for value in values)
    return values


def assert_matches_model(stream, geometry, base, budgets, mode="both",
                         release="budget"):
    """Replay one wrapper on its planned kernel and on the model.

    A dueling base on a one-set geometry has no room for leader sets:
    both engines must refuse it with the same error.
    """
    fast_wrapper = make_wrapper(base, budgets, mode, release)
    model_wrapper = make_wrapper(base, budgets, mode, release)
    if ENGINES[base][0] == "dueling" and geometry.num_sets == 1:
        for wrapper, fastpath in ((fast_wrapper, None),
                                  (model_wrapper, False)):
            with pytest.raises(ConfigError, match=ONE_SET_REFUSAL):
                run_policy_on_stream(stream, geometry, wrapper, seed=SEED,
                                     fastpath=fastpath)
        return fast_wrapper
    fast = run_policy_on_stream(stream, geometry, fast_wrapper, seed=SEED)
    model = run_policy_on_stream(
        stream, geometry, model_wrapper, seed=SEED, fastpath=False
    )
    assert (fast.tier, fast.backend) == ENGINES[base]
    assert model.backend == "model"
    assert fast == model, (base, mode, release)
    assert counters(fast_wrapper) == counters(model_wrapper), base
    return fast_wrapper


class TestOracleBitIdentity:
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("mode", PROTECTION_MODES)
    @pytest.mark.parametrize("release", RELEASE_POLICIES)
    def test_matches_scalar_model(self, base, mode, release):
        stream = shared_stream()
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        assert_matches_model(stream, GEOMETRY, base, budgets, mode, release)

    @pytest.mark.parametrize("base", ["dip", "drrip"])
    @pytest.mark.parametrize("mode", PROTECTION_MODES)
    def test_dueling_followers(self, base, mode):
        # One leader set per role and a 2-bit PSEL, so most sets follow a
        # flag that flips often (at 32 leaders per role, every set of a
        # small cache leads).
        stream = shared_stream()
        geometry = CacheGeometry(16 * 2 * 64, 2)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=4)
        cls = {"dip": DipPolicy, "drrip": DrripPolicy}[base]
        made = [
            SharingAwareWrapper(
                cls(seed=SEED, num_leaders_each=1, psel_bits=2),
                AnnotationHintSource(budgets), mode,
            )
            for __ in range(2)
        ]
        fast = run_policy_on_stream(stream, geometry, made[0])
        model = run_policy_on_stream(stream, geometry, made[1],
                                     fastpath=False)
        assert (fast.tier, model.backend) == ("dueling", "model")
        assert fast == model
        assert counters(made[0]) == counters(made[1])

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("mode", PROTECTION_MODES)
    def test_unprotected_first_choice_beside_protected_ways(self, base,
                                                             mode):
        # Six blocks of set 0, one core. A B C D fill its four ways and
        # only B and C are protected. E's miss finds an unprotected first
        # choice (A: the least recent, or the first way at the top RRPV)
        # in a row whose other ways are protected: the kernels skip their
        # exemption search there, and the victim must still be the
        # model's. F's miss then finds the protected B first and exempts
        # it.
        stream = make_stream([(0, 0x400000, 16 * k, False) for k in range(6)])
        budgets = array("i", [0, 0, 1, 1, 0, 0, 0])
        wrapper = assert_matches_model(stream, GEOMETRY, base, budgets, mode)
        if base in ("lru", "srrip", "ship") and mode == "victim-exempt":
            assert wrapper.exemptions_applied == 1

    def test_counters_are_exercised(self):
        # The identity above is vacuous if the stream never protects or
        # exempts anything; pin that the canonical stream drives all
        # three counters (releases requires the budget release policy).
        stream = shared_stream()
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        for base in BASES:
            wrapper = assert_matches_model(stream, GEOMETRY, base, budgets)
            assert wrapper.protected_fills > 0
            assert wrapper.exemptions_applied > 0
            assert wrapper.releases > 0

    def test_single_set_geometry(self):
        stream = shared_stream(800, 40)
        geometry = CacheGeometry(1 * 4 * 64, 4)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=4)
        for base in BASES:
            assert_matches_model(stream, geometry, base, budgets)

    @pytest.mark.parametrize("base", ["dip", "drrip"])
    def test_dueling_base_refuses_one_set_on_both_engines(self, base):
        stream = shared_stream(300, 40)
        geometry = CacheGeometry(1 * 4 * 64, 4)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=4)
        for gates in ({}, {"fastpath": False}):
            with pytest.raises(ConfigError, match=ONE_SET_REFUSAL):
                run_policy_on_stream(stream, geometry,
                                     make_wrapper(base, budgets), **gates)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("geometry", [
        CacheGeometry(256 * 4 * 64, 4),  # sets 130..255 never touched
        CacheGeometry(16 * 1 * 64, 1),   # direct-mapped
    ], ids=["untouched-sets", "one-way"])
    def test_edge_geometries(self, base, geometry):
        stream = shared_stream(800, 130)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=4)
        for mode in PROTECTION_MODES:
            assert_matches_model(stream, geometry, base, budgets, mode)

    @pytest.mark.parametrize("base", BASES)
    def test_block_addresses_above_2_to_the_40(self, base):
        stream = shared_stream(1500, 130, high=3 << 40)
        assert min(stream.blocks) > 1 << 40
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        assert_matches_model(stream, GEOMETRY, base, budgets)

    def test_oversized_cap_replays_natively(self):
        # The kernels read budgets as plain ints, so budgets above 127
        # (cap 300) take them too. One hot block shared by every core in
        # every other access drives the budgets to ~190.
        accesses = []
        for i in range(3000):
            if i % 2 == 0:
                accesses.append(((i // 2) % 4, 0x400000, 7, False))
            else:
                block = 8 + (i * 5 + (i // 11) * 2) % 200
                accesses.append(
                    ((i // 3) % 4, 0x400000 + (i % 6) * 0x1C, block,
                     i % 7 == 0)
                )
        stream = make_stream(accesses)
        budgets = build_stream_annotation(
            stream, GEOMETRY, horizon_factor=8, cap=300
        )
        assert max(budgets) > 127
        for base in BASES:
            released = {
                release: assert_matches_model(
                    stream, GEOMETRY, base, budgets, release=release
                ).releases
                for release in RELEASE_POLICIES
            }
            # Budgets above one tell "budget" from "first-share" apart
            # (on the canonical stream every budget is 0 or 1).
            assert released["budget"] != released["first-share"], base

    def test_empty_stream(self):
        stream = make_stream([])
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        for base in BASES:
            wrapper = make_wrapper(base, budgets)
            result = run_policy_on_stream(stream, GEOMETRY, wrapper)
            assert (result.tier, result.backend) == ENGINES[base]
            assert (result.accesses, result.hits, result.misses) == (0, 0, 0)
            assert counters(wrapper) == (0, 0, 0)

    def test_base_instance_left_unbound(self):
        stream = shared_stream(900, 50)
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        for base in BASES:
            wrapper = make_wrapper(base, budgets)
            state_before = dict(vars(wrapper.base))
            result = run_policy_on_stream(stream, GEOMETRY, wrapper)
            assert (result.tier, result.backend) == ENGINES[base]
            assert wrapper.geometry is None
            assert wrapper.base.geometry is None
            assert vars(wrapper.base) == state_before
            # The kernels draw from fresh per-set streams, not the base's.
            assert wrapper.base._set_rngs == {}

    @settings(max_examples=25, deadline=None)
    @given(accesses=replay_stream_lists(pcs=SIGNATURE_PCS),
           geometry=geometries())
    def test_hypothesis_streams(self, accesses, geometry):
        stream = make_stream(accesses)
        budgets = build_stream_annotation(stream, geometry, horizon_factor=2)
        for base in BASES:
            assert_matches_model(stream, geometry, base, budgets)

    @pytest.mark.parametrize("base", BASES)
    def test_study_native_toggle_is_invisible(self, base):
        stream = shared_stream()
        native = run_oracle_study(
            stream, GEOMETRY, base=base, seed=SEED, native=True
        )
        gated = run_oracle_study(
            stream, GEOMETRY, base=base, seed=SEED, native=False
        )
        assert native.oracle == gated.oracle
        assert native.base == gated.base
        assert native.protected_fills == gated.protected_fills
        assert native.exemptions == gated.exemptions
        assert (native.oracle.tier, native.oracle.backend) == ENGINES[base]
        # Only the compact kernel sits behind the native gate.
        assert gated.oracle.backend == (
            "model" if base == "ship" else "numpy"
        )

    @pytest.mark.parametrize("base", LOCKSTEP_BASES)
    def test_geometry_grid_over_a_wrapper_factory(self, base):
        stream = shared_stream()
        budgets = build_stream_annotation(stream, GEOMETRY, horizon_factor=4)
        grid = [CacheGeometry(sets * ways * 64, ways)
                for sets, ways in ((16, 4), (16, 2), (8, 4), (64, 8))]
        made = []

        def factory():
            made.append(make_wrapper(base, budgets))
            return made[-1]

        results = replay_geometry_grid(stream, grid, factory, fastpath=True)
        assert len(made) == len(grid)
        for geometry, result, wrapper in zip(grid, results, made):
            alone = make_wrapper(base, budgets)
            cell = run_policy_on_stream(stream, geometry, alone, seed=SEED,
                                        fastpath=False)
            # Each cell is its own planned replay on the lockstep kernel.
            assert (result.tier, result.backend, result.reason) == (
                *ENGINES[base], "")
            assert (result.hits, result.misses) == (cell.hits, cell.misses)
            assert counters(wrapper) == counters(alone)


class TestOracleFallbackChain:
    """Each wrapper replay lands on the backend, and with the decline
    reason, that ``run_policy_on_stream`` stamps on its result."""

    STREAM = shared_stream(400, 30)

    def _budgets(self, stream=STREAM, geometry=GEOMETRY):
        return build_stream_annotation(stream, geometry, horizon_factor=4)

    def _replay(self, wrapper, **kwargs):
        result = run_policy_on_stream(self.STREAM, GEOMETRY, wrapper, **kwargs)
        return result.backend, result.reason

    def _planned_reason(self, wrapper):
        return plan_replay(wrapper, (), self.STREAM, True, True).reason

    def test_spec_covers_supported_bases(self):
        for base in BASES:
            wrapper = make_wrapper(base, self._budgets())
            assert self._replay(wrapper) == (ENGINES[base][1], "")

    def test_unsupported_base_declines(self):
        for base in ("nru", "random"):
            wrapper = make_wrapper(base, self._budgets())
            assert self._replay(wrapper, native=True) == (
                "model", "no-kernel")

    def test_bound_wrapper_declines(self):
        wrapper = make_wrapper("lru", self._budgets())
        wrapper.bind(GEOMETRY)
        assert self._planned_reason(wrapper) == "bound"

    def test_bound_base_declines(self):
        wrapper = make_wrapper("lru", self._budgets())
        wrapper.base.bind(GEOMETRY)
        assert self._planned_reason(wrapper) == "bound"

    def test_subclassed_wrapper_declines(self):
        class TweakedWrapper(SharingAwareWrapper):
            pass

        wrapper = TweakedWrapper(make_policy("lru", seed=SEED),
                                 AnnotationHintSource(self._budgets()), "both")
        assert self._replay(wrapper, native=True) == ("model", "no-kernel")

    def test_subclassed_hint_source_declines(self):
        class TweakedSource(AnnotationHintSource):
            pass

        wrapper = SharingAwareWrapper(make_policy("lru", seed=SEED),
                                      TweakedSource(self._budgets()), "both")
        assert self._replay(wrapper) == ("model", "hint-source")

    def test_closure_hint_source_declines(self):
        wrapper = SharingAwareWrapper(
            make_policy("lru", seed=SEED), lambda llc, c, b, pc: 0, "both"
        )
        assert self._replay(wrapper) == ("model", "hint-source")

    def test_misaligned_annotation_raises(self):
        # An annotation built for a different stream is a caller error on
        # every engine, not a fallback to the model.
        wrapper = make_wrapper("lru", self._budgets(shared_stream(200, 30)))
        for gates in ({}, {"native": False}, {"fastpath": False}):
            with pytest.raises(SimulationError,
                               match="201 budgets for a 400-access stream"):
                self._replay(wrapper, **gates)

    def test_observers_decline(self):
        class Observer:
            def residency_started(self, *args): pass
            def residency_ended(self, *args): pass

        for base in BASES:
            wrapper = make_wrapper(base, self._budgets())
            assert self._replay(wrapper, observers=(Observer(),)) == (
                "model", "observers")

    def test_set_tier_has_no_wrapper_walk(self):
        # The lockstep kernel only counts; a residency walk, which
        # observers need, is refused rather than silently left empty.
        wrapper = make_wrapper("lru", self._budgets())
        with pytest.raises(SimulationError, match="no set-tier walk kernel"):
            reconstruct_setpath_replay(self.STREAM, GEOMETRY, wrapper)

    def test_env_escape_hatch_lands_on_model(self, monkeypatch):
        stream = shared_stream(600, 40)
        budgets = self._budgets(stream)
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        gated = {base: run_policy_on_stream(
            stream, GEOMETRY, make_wrapper(base, budgets), seed=SEED
        ) for base in BASES}
        assert (gated["ship"].backend, gated["ship"].reason) == (
            "model", "native-off")
        assert (gated["srrip"].backend, gated["srrip"].reason) == (
            "numpy", "")
        monkeypatch.delenv(NO_NATIVE_ENV)
        auto = run_policy_on_stream(
            stream, GEOMETRY, make_wrapper("ship", budgets), seed=SEED
        )
        assert auto.backend == "compact"
        assert gated["ship"] == auto

    def test_no_fastpath_still_means_pure_model(self):
        for base in BASES:
            wrapper = make_wrapper(base, self._budgets())
            assert self._replay(wrapper, fastpath=False) == (
                "model", "fastpath-off")

    def test_profile_records_native_stages(self):
        stream = shared_stream(600, 40)
        profile = {}
        replay_oracle_nativepath(
            stream, GEOMETRY, make_wrapper("ship", self._budgets(stream)),
            profile=profile,
        )
        assert profile["native_prepare"] >= 0.0
        assert profile["native_kernel"] >= 0.0
        assert profile["native_backend"] == "compact"


class TestAnnotationMemo:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        annotation_memo_clear()
        yield
        annotation_memo_clear()

    def test_hit_and_miss_counters(self):
        stream = shared_stream(300, 30)
        first = stream_annotation(stream, GEOMETRY, 4)
        again = stream_annotation(stream, GEOMETRY, 4)
        assert again is first
        stats = annotation_memo_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["capacity"] == ANNOTATION_MEMO_CAPACITY

    def test_window_collision_shares_and_distinct_windows_do_not(self):
        # Same window product (factor * num_blocks) -> one computation;
        # a different factor -> a fresh entry.
        stream = shared_stream(300, 30)
        doubled = CacheGeometry(
            GEOMETRY.size_bytes * 2, GEOMETRY.ways, GEOMETRY.block_bytes
        )
        a = stream_annotation(stream, GEOMETRY, 4)
        b = stream_annotation(stream, doubled, 2)
        assert b is a
        c = stream_annotation(stream, GEOMETRY, 2)
        assert c is not a
        assert annotation_memo_stats()["entries"] == 2

    def test_lru_bound_and_eviction_counter(self):
        stream = shared_stream(200, 20)
        for cap in range(ANNOTATION_MEMO_CAPACITY + 8):
            stream_annotation(stream, GEOMETRY, 2, cap=cap + 1)
        stats = annotation_memo_stats()
        assert stats["entries"] == ANNOTATION_MEMO_CAPACITY
        assert stats["evictions"] == 8

    def test_lru_order_evicts_least_recent(self):
        stream = shared_stream(200, 20)
        first = stream_annotation(stream, GEOMETRY, 2, cap=1)
        for cap in range(2, ANNOTATION_MEMO_CAPACITY + 1):
            stream_annotation(stream, GEOMETRY, 2, cap=cap)
        # Touch the oldest entry, then overflow: the touched entry must
        # survive and the second-oldest go instead.
        assert stream_annotation(stream, GEOMETRY, 2, cap=1) is first
        stream_annotation(stream, GEOMETRY, 2, cap=ANNOTATION_MEMO_CAPACITY + 1)
        assert stream_annotation(stream, GEOMETRY, 2, cap=1) is first
        assert annotation_memo_stats()["evictions"] == 1

    def test_dead_streams_are_purged(self):
        stream = shared_stream(200, 20)
        stream_annotation(stream, GEOMETRY, 2)
        assert annotation_memo_stats()["entries"] == 1
        del stream
        gc.collect()
        # The weakref callback fires on referent death; a later insert
        # must not resurrect the dead key.
        other = shared_stream(100, 10)
        stream_annotation(other, GEOMETRY, 2)
        assert annotation_memo_stats()["entries"] == 1

    def test_clear_resets_counters(self):
        stream = shared_stream(200, 20)
        stream_annotation(stream, GEOMETRY, 2)
        stream_annotation(stream, GEOMETRY, 2)
        annotation_memo_clear()
        stats = annotation_memo_stats()
        assert stats == {
            "entries": 0, "capacity": ANNOTATION_MEMO_CAPACITY,
            "hits": 0, "misses": 0, "evictions": 0,
        }
