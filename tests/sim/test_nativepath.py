"""Differential tests for the native scalar-tier backend.

The nativepath contract is the same one every other replay tier carries:
*bit-identity with the scalar model*. SHiP replayed through the compact
kernel must produce exactly the counters
``LlcOnlySimulator(geometry, ShipPolicy()).run(stream)`` produces —
including parameterized variants, adversarial hypothesis streams, and the
single-set degenerate geometry — with the scalar tier recorded (this is a
faster *backend*, not a new tier) and the kernel that ran recorded in
``result.backend``. The fallback chain is pinned the same way the grid
layer pins its forced-scalar cells: gated off, observer-carrying,
undeclared-subclass, and bound-instance replays all land on the object
model with ``backend == "model"``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import CacheGeometry
from repro.common.rng import derive_seed
from repro.policies.base import REPLAY_SCALAR
from repro.policies.ship import ShipPolicy
from repro.sim.engine import LlcOnlySimulator
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.multipass import run_policy_on_stream
from repro.sim.nativepath import NO_NATIVE_ENV, replay_ship_nativepath
from repro.sim.plan import plan_replay
from tests.conftest import make_stream
from tests.strategies import SIGNATURE_PCS, replay_stream_lists

SEED = 11


@pytest.fixture(autouse=True)
def _auto_native_gates(monkeypatch):
    """Pin the native and fastpath env gates to their default.

    The CI matrix runs the whole suite with ``REPRO_SIM_NO_NATIVE=1`` and
    with ``REPRO_SIM_NO_FASTPATH=1`` (the escape-hatch jobs); these tests
    probe the native gate itself, which sits behind the fastpath gate, so
    they must see the unset-auto state regardless of the ambient
    environment.
    """
    monkeypatch.delenv(NO_NATIVE_ENV, raising=False)
    monkeypatch.delenv(FASTPATH_ENV, raising=False)

GEOMETRIES = [
    CacheGeometry(8 * 4 * 64, 4),    # 8 sets x 4 ways
    CacheGeometry(16 * 8 * 64, 8),   # 16 sets x 8 ways
    CacheGeometry(1 * 4 * 64, 4),    # single set (set_mask == 0)
    CacheGeometry(4 * 1 * 64, 1),    # direct-mapped
]


def cell_seed(name: str) -> int:
    """The seed ``run_policy_on_stream`` derives for a named replay."""
    return derive_seed(SEED, "replay", name)


def mixed_stream(n=4000, spread=160, pcs=5):
    """A deterministic multi-core read/write stream with PC locality."""
    accesses = []
    for i in range(n):
        block = (i * 7 + (i // 13) * 3) % spread
        pc = 0x400000 + ((i * 11) % pcs) * 0x24
        accesses.append((i % 4, pc, block, i % 5 == 0))
    return make_stream(accesses)


accesses_strategy = replay_stream_lists(pcs=SIGNATURE_PCS)


def scalar_reference(stream, geometry, seed=SEED):
    """The pure scalar-model SHiP replay nativepath must reproduce."""
    return run_policy_on_stream(
        stream, geometry, "ship", seed=seed, fastpath=False
    )


class TestShipBitIdentity:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_scalar_model(self, geometry):
        stream = mixed_stream()
        ref = scalar_reference(stream, geometry)
        native = replay_ship_nativepath(stream, geometry, ShipPolicy())
        assert native == ref
        assert native.tier == REPLAY_SCALAR
        assert native.backend == "compact"

    def test_parameter_variants_match(self):
        stream = mixed_stream(3000, 90)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        for rrpv_bits, shct_bits, counter_bits in [
            (1, 4, 1), (2, 6, 2), (3, 8, 3), (2, 14, 2),
        ]:
            variant = ShipPolicy(
                rrpv_bits=rrpv_bits, shct_bits=shct_bits,
                counter_bits=counter_bits,
            )
            ref = LlcOnlySimulator(
                geometry,
                ShipPolicy(rrpv_bits=rrpv_bits, shct_bits=shct_bits,
                           counter_bits=counter_bits),
            ).run(stream)
            assert replay_ship_nativepath(stream, geometry, variant) == ref

    def test_kernel_leaves_instance_untouched(self):
        stream = mixed_stream(1000, 60)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        policy = ShipPolicy()
        before = list(policy._shct)
        replay_ship_nativepath(stream, geometry, policy)
        assert policy.geometry is None
        assert policy._shct == before

    def test_profile_records_native_stages(self):
        stream = mixed_stream(1000, 60)
        profile = {}
        replay_ship_nativepath(
            stream, CacheGeometry(8 * 4 * 64, 4), ShipPolicy(),
            profile=profile,
        )
        assert profile["native_prepare"] >= 0.0
        assert profile["native_kernel"] >= 0.0
        assert profile["native_backend"] == "compact"

    def test_empty_stream(self):
        stream = make_stream([])
        result = replay_ship_nativepath(
            stream, CacheGeometry(8 * 4 * 64, 4), ShipPolicy()
        )
        assert (result.accesses, result.hits, result.misses) == (0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(accesses=accesses_strategy)
    def test_hypothesis_streams(self, accesses):
        stream = make_stream(accesses)
        geometry = CacheGeometry(4 * 2 * 64, 2)
        ref = LlcOnlySimulator(geometry, ShipPolicy()).run(stream)
        assert replay_ship_nativepath(stream, geometry, ShipPolicy()) == ref


class TestFallbackChain:
    def test_auto_dispatch_records_native_backend(self):
        stream = mixed_stream(1200, 70)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        result = run_policy_on_stream(stream, geometry, "ship", seed=SEED)
        assert result.tier == REPLAY_SCALAR
        assert result.backend == "compact"
        assert result == scalar_reference(stream, geometry)

    def test_env_escape_hatch_lands_on_model(self, monkeypatch):
        stream = mixed_stream(800, 50)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        gated = run_policy_on_stream(stream, geometry, "ship", seed=SEED)
        assert gated.backend == "model"
        assert gated.tier == REPLAY_SCALAR
        # =0 counts as unset (the env_flag contract) — native again.
        monkeypatch.setenv(NO_NATIVE_ENV, "0")
        auto = run_policy_on_stream(stream, geometry, "ship", seed=SEED)
        assert auto.backend == "compact"
        assert gated == auto

    @staticmethod
    def _replay(policy, **kwargs):
        result = run_policy_on_stream(
            mixed_stream(800, 50), CacheGeometry(8 * 4 * 64, 4), policy,
            seed=SEED, **kwargs,
        )
        return result.backend, result.reason

    def test_native_false_param_lands_on_model(self):
        assert self._replay("ship", native=False) == ("model", "native-off")

    def test_undeclared_subclass_lands_on_model(self):
        # Exact-type guard: a subclass must not ride the parent's kernel.
        class TweakedShip(ShipPolicy):
            def on_hit(self, set_index, way, block, pc, core, is_write):
                self._rrpv[set_index][way] = 1  # not 0: different policy

        assert self._replay(TweakedShip()) == ("model", "no-kernel")

    def test_bound_instance_lands_on_model(self):
        bound = ShipPolicy()
        bound.bind(CacheGeometry(8 * 4 * 64, 4))
        assert plan_replay(bound, (), (), True, True).reason == "bound"

    def test_observers_decline(self):
        class Observer:
            def residency_started(self, *args): pass
            def residency_ended(self, *args): pass

        assert self._replay("ship", observers=(Observer(),)) == (
            "model", "observers")

    def test_no_fastpath_still_means_pure_model(self):
        # The native backend sits behind the fastpath gate, so the
        # differential suite's fastpath=False reference stays the pure
        # scalar model.
        assert self._replay("ship", fastpath=False) == (
            "model", "fastpath-off")

    def test_name_and_instance_agree(self):
        stream = mixed_stream(900, 55)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        by_name = run_policy_on_stream(stream, geometry, "ship")
        by_instance = run_policy_on_stream(stream, geometry, ShipPolicy())
        assert by_name.backend == by_instance.backend
        assert by_name == by_instance

    def test_provenance_survives_as_dict(self):
        stream = mixed_stream(400, 30)
        geometry = CacheGeometry(8 * 4 * 64, 4)
        payload = run_policy_on_stream(
            stream, geometry, "ship", seed=SEED
        ).as_dict()
        assert payload["tier"] == REPLAY_SCALAR
        assert payload["backend"] == "compact"

