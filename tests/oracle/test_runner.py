"""Tests for the end-to-end oracle study runner."""

import pytest

from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.oracle.runner import run_oracle_study, shared_fill_fraction
from repro.policies.registry import POLICY_NAMES
from repro.sim.fastpath import FASTPATH_ENV
from repro.sim.nativepath import NO_NATIVE_ENV
from tests.conftest import make_stream

GEOMETRY = CacheGeometry(2 * 4 * 64, 4)  # 2 sets x 4 ways = 8 blocks


def sharing_with_pollution_stream(rounds=60):
    """Core 0 streams one-shot pollution; a small shared set is re-read by
    core 1 at intervals just beyond LRU's reach — the exact pattern the
    oracle is built to fix."""
    accesses = []
    cold = 1000
    for round_ in range(rounds):
        for shared_block in (0, 2):
            accesses.append((round_ % 2, 0x10, shared_block, False))
        for __ in range(10):
            cold += 2  # stay in set 0 to pressure the shared blocks
            accesses.append((0, 0x20, cold, False))
    return make_stream(accesses)


class TestRunOracleStudy:
    def test_oracle_beats_lru_on_target_pattern(self):
        # The pattern's cross-core reuse interval (12 accesses) exceeds the
        # auto horizon at miss ratio 1.0 (one turnover = 8 accesses), so fix
        # the horizon explicitly at a few turnovers.
        study = run_oracle_study(sharing_with_pollution_stream(), GEOMETRY,
                                 horizon_factor=8)
        assert study.base.misses > study.oracle.misses
        assert study.miss_reduction > 0.1

    def test_private_stream_gets_no_gain_and_no_loss(self):
        stream = make_stream([(0, 0, b % 20, False) for b in range(500)])
        study = run_oracle_study(stream, GEOMETRY)
        assert study.oracle.misses == study.base.misses
        assert shared_fill_fraction(stream, GEOMETRY) == 0.0
        assert study.protected_fills == 0

    def test_result_fields_consistent(self):
        stream = sharing_with_pollution_stream()
        study = run_oracle_study(stream, GEOMETRY, horizon_factor=8)
        assert study.base.accesses == study.oracle.accesses
        # Under thrashing LRU no residency survives to its cross-core use,
        # so the realised sharing fraction is zero even though the stream
        # annotation (and hence protected_fills) sees the future sharing —
        # exactly the gap between realised and potential sharing the oracle
        # exploits.
        assert shared_fill_fraction(stream, GEOMETRY) == 0.0
        assert study.protected_fills > 0
        assert study.horizon_factor >= 1

    def test_explicit_horizon_override(self):
        stream = sharing_with_pollution_stream()
        study = run_oracle_study(stream, GEOMETRY, horizon_factor=3)
        assert study.horizon_factor == 3

    def test_rejects_bad_turnovers(self):
        with pytest.raises(ConfigError):
            run_oracle_study(sharing_with_pollution_stream(), GEOMETRY,
                             horizon_turnovers=0)

    @pytest.mark.parametrize("base", POLICY_NAMES)
    def test_composes_with_every_base_policy(self, base):
        study = run_oracle_study(sharing_with_pollution_stream(), GEOMETRY,
                                 base=base, seed=7, horizon_factor=8)
        assert study.base.accesses == study.oracle.accesses
        # The generic-oracle guarantee on this sharing-friendly pattern:
        # never a large regression for any base.
        assert study.miss_reduction > -0.05

    @pytest.mark.parametrize("mode", ["victim-exempt", "insert-promote", "both"])
    def test_modes_run(self, mode):
        study = run_oracle_study(sharing_with_pollution_stream(), GEOMETRY,
                                 mode=mode, horizon_factor=8)
        assert study.oracle.misses <= study.base.misses

    @pytest.mark.parametrize("release", ["budget", "first-share", "never"])
    def test_releases_run(self, release):
        study = run_oracle_study(sharing_with_pollution_stream(), GEOMETRY,
                                 release=release, horizon_factor=8)
        assert study.oracle.accesses == study.base.accesses


class TestHorizonDerivation:
    def test_auto_horizon_clamped(self):
        from repro.oracle.runner import MAX_HORIZON_FACTOR

        # A nearly hit-only stream drives the turnover horizon huge; the
        # cap must bound it.
        accesses = [(i % 2, 0, i % 3, False) for i in range(500)]
        study = run_oracle_study(make_stream(accesses), GEOMETRY)
        assert 1 <= study.horizon_factor <= MAX_HORIZON_FACTOR

    def test_auto_horizon_small_for_thrashing(self):
        # Miss ratio ~1.0 -> horizon ~ turnovers / 1.0 rounded down.
        accesses = [(0, 0, b, False) for b in range(500)]
        study = run_oracle_study(make_stream(accesses), GEOMETRY)
        assert study.horizon_factor == 1


def shared_stream(n=3000):
    """Four cores over 130 blocks with cross-core reuse at every range."""
    return make_stream([
        (i % 4, 0x400 + (i % 6) * 0x1C, (i * 5 + (i // 11) * 2) % 130,
         i % 7 == 0)
        for i in range(n)
    ])


SHARED_GEOMETRY = CacheGeometry(16 * 4 * 64, 4)


class TestBasePass:
    """The base pass is a plain replay on the base's own engine."""

    @pytest.fixture(autouse=True)
    def _auto_gates(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        monkeypatch.delenv(NO_NATIVE_ENV, raising=False)

    @pytest.mark.parametrize("base, engine", [
        ("lru", ("stack", "python")),
        ("srrip", ("set", "numpy")),
        ("drrip", ("dueling", "numpy")),
        ("ship", ("scalar", "compact")),
    ])
    def test_base_replay_takes_its_planned_engine(self, record_spans, base,
                                                   engine):
        spans = record_spans(lambda: run_oracle_study(
            shared_stream(), SHARED_GEOMETRY, base=base,
        ))
        [replay] = [s for s in spans
                    if s["stage"] == "replay" and s["policy"] == base]
        assert (replay["tier"], replay["backend"], replay["reason"]) \
            == (*engine, "")


class TestSharedFillFraction:
    @pytest.mark.parametrize("base", ["lru", "dip", "srrip", "drrip", "ship"])
    def test_same_on_every_engine(self, base):
        stream = shared_stream()
        fast = shared_fill_fraction(stream, SHARED_GEOMETRY, base, seed=7,
                                    fastpath=True)
        slow = shared_fill_fraction(stream, SHARED_GEOMETRY, base, seed=7,
                                    fastpath=False)
        assert fast == slow > 0

    @pytest.mark.parametrize("base", ["dip", "drrip", "random"])
    def test_replays_the_base_pass(self, record_spans, base):
        # Seeded like the base pass, the fraction's replay of a stochastic
        # base sees the base pass's residencies, so it counts its misses.
        stream = shared_stream()
        study = run_oracle_study(stream, SHARED_GEOMETRY, base=base, seed=7)
        spans = record_spans(lambda: shared_fill_fraction(
            stream, SHARED_GEOMETRY, base, seed=7,
        ))
        [replay] = [s for s in spans if s["stage"] == "replay"]
        assert (replay["hits"], replay["misses"]) \
            == (study.base.hits, study.base.misses)
