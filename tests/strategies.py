"""Shared hypothesis strategy library for the whole test fleet.

Every property suite used to carry its own ad-hoc copy of "a random list
of accesses"; they now come from here, so the stream shapes the
differential suites fuzz and the scenario space the fuzzing harness
samples stay in one place. Importing this module also registers the
``ci``/``nightly`` hypothesis profiles (selected via
``REPRO_SIM_HYPOTHESIS_PROFILE``) exactly once for everyone.

Two kinds of generators live here:

* **plain hypothesis strategies** over access tuples, streams, geometries,
  and policy configurations (`access_lists`, `stream_lists`,
  `geometries`, `policy_names`, `policy_seeds`);
* **wrappers over the library's own seeded samplers** (`kernel_mix_specs`,
  `fuzz_scenarios`) — hypothesis draws only a seed/index and the
  deterministic sampler in :mod:`repro.workloads.fuzzmix` /
  :mod:`repro.sim.fuzz` does the structured generation, so the tests
  exercise the exact same scenario space the fuzzing fleet sweeps.
"""

import os

from hypothesis import settings, strategies as st

from repro.common.config import CacheGeometry
from repro.common.rng import DeterministicRng
from repro.policies.registry import POLICY_NAMES

settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True
)
settings.register_profile("nightly", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("REPRO_SIM_HYPOTHESIS_PROFILE", "ci"))

REPLAY_PCS = (0x100, 0x200, 0x300)
"""Compact PC pool for replay-tier differential suites."""

SIGNATURE_PCS = (0x100, 0x2040, 0x85010)
"""PC pool whose values land on distinct SHiP signature-table entries."""


def access_lists(num_threads=2, max_addr=4096, max_pc=8, min_size=1,
                 max_size=400):
    """Random ``(tid, pc, addr, is_write)`` lists (full-hierarchy traces)."""
    return st.lists(
        st.tuples(
            st.integers(0, num_threads - 1),
            st.integers(0, max_pc - 1).map(lambda p: 0x400 + p * 4),
            st.integers(0, max_addr - 1),
            st.booleans(),
        ),
        min_size=min_size,
        max_size=max_size,
    )


def mixed_access_lists(num_threads=4, min_size=1, max_size=600):
    """Full-hierarchy access lists mixing hot and cold blocks.

    Hypothesis draws the list size, the hot and cold footprints (in
    blocks), the hot share, the write share and a seed; a seeded RNG then
    builds the list. Hot blocks hit in the private levels and get upgraded,
    while cold ones evict them from a small LLC, so back-invalidation and
    writebacks show up even within the ``ci`` profile's 25 examples.
    """

    def build(params):
        seed, size, hot, cold, hot_pct, write_pct = params
        rng = DeterministicRng(seed)
        return [
            (
                rng.randrange(num_threads),
                0x400 + 4 * rng.randrange(8),
                64 * (rng.randrange(hot) if rng.randrange(100) < hot_pct
                      else rng.randrange(cold)) + rng.randrange(64),
                rng.randrange(100) < write_pct,
            )
            for __ in range(size)
        ]

    return st.tuples(
        st.integers(0, 2**32 - 1), st.integers(min_size, max_size),
        st.integers(1, 32), st.integers(1, 512),
        st.integers(0, 100), st.integers(0, 60),
    ).map(build)


def stream_lists(num_cores=2, max_block=64, max_pc=8, min_size=1,
                 max_size=400):
    """Random ``(core, pc, block, is_write)`` LLC stream access lists."""
    return st.lists(
        st.tuples(
            st.integers(0, num_cores - 1),
            st.integers(0, max_pc - 1).map(lambda p: 0x400 + p * 4),
            st.integers(0, max_block - 1),
            st.booleans(),
        ),
        min_size=min_size,
        max_size=max_size,
    )


def replay_stream_lists(pcs=REPLAY_PCS, num_cores=4, max_block=47,
                        min_size=1, max_size=250):
    """Stream lists shaped for the replay-tier differential suites.

    A small fixed PC pool (`pcs`) keeps PC-indexed policy state (SHiP
    signatures) colliding often enough to exercise it; pass
    :data:`SIGNATURE_PCS` for distinct signature-table rows instead.
    """
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=num_cores - 1),
            st.sampled_from(list(pcs)),
            st.integers(min_value=0, max_value=max_block),
            st.booleans(),
        ),
        min_size=min_size,
        max_size=max_size,
    )


def geometries(max_set_bits=4, ways=(1, 2, 4, 8), block_bytes=64):
    """Valid :class:`CacheGeometry` draws (power-of-two sets x ways)."""
    return st.builds(
        lambda set_bits, way: CacheGeometry(
            (1 << set_bits) * way * block_bytes, way, block_bytes
        ),
        st.integers(0, max_set_bits),
        st.sampled_from(list(ways)),
    )


def policy_names():
    """One registered replacement-policy name (sorted for derandomize)."""
    return st.sampled_from(sorted(POLICY_NAMES))


def policy_seeds(max_seed=2**16):
    """Replay seeds for stochastic policies."""
    return st.integers(0, max_seed)


def policy_configs(max_seed=2**16):
    """``(policy_name, seed)`` pairs — one replayable policy config."""
    return st.tuples(policy_names(), policy_seeds(max_seed))


def kernel_mix_specs(llc_blocks=512, num_threads=4, max_seed=2**20):
    """Sampled sharing-kernel mix specs from the fuzz generator space.

    Hypothesis draws only the seed; the structured spec comes from
    :func:`repro.workloads.fuzzmix.sample_kernel_mix` — the exact sampler
    the fuzzing fleet uses, so shrinking stays meaningful (it shrinks the
    seed, and every seed is a valid scenario).
    """
    from repro.workloads.fuzzmix import sample_kernel_mix

    return st.integers(0, max_seed).map(
        lambda seed: sample_kernel_mix(
            DeterministicRng(seed), llc_blocks, num_threads
        )
    )


def fuzz_scenarios(seed=42, scenarios=64, mix_fraction=0.25):
    """Whole fuzz scenarios drawn from a campaign's sample space."""
    from repro.sim.fuzz import FuzzConfig, sample_scenario

    config = FuzzConfig(
        seed=seed, scenarios=scenarios, mix_fraction=mix_fraction
    )
    return st.integers(0, config.total_scenarios - 1).map(
        lambda index: sample_scenario(config, index)
    )


# ----------------------------------------------------------------------
# Telemetry event logs (event-log reader suites)
# ----------------------------------------------------------------------

RUN_STATUSES = ("completed", "completed_with_failures", "failed", "running")
EVENT_KINDS = ("run_started", "span", "cells_start", "cell_done",
               "cell_retry", "cell_failed", "cells_done", "artifact",
               "run_finished")
_NAME_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_"


def _names(min_size=1, max_size=16):
    return st.text(alphabet=_NAME_ALPHABET, min_size=min_size,
                   max_size=max_size)


def telemetry_events(min_size=0, max_size=24):
    """Event-record lists as they land in ``events.jsonl``."""
    base = st.fixed_dictionaries(
        {
            "t": st.floats(0, 2e9, allow_nan=False),
            "pid": st.integers(1, 2**22),
            "role": st.sampled_from(("main", "worker")),
            "kind": st.sampled_from(EVENT_KINDS),
            "schema_version": st.just(1),
        },
        optional={
            "stage": _names(),
            "workload": _names(),
            "duration_s": st.floats(0, 1e3, allow_nan=False),
            "wall_sec": st.floats(0, 1e3, allow_nan=False),
            "status": st.sampled_from(RUN_STATUSES),
        },
    )
    return st.lists(base, min_size=min_size, max_size=max_size)


def event_log_corruptions():
    """One corruption to inflict on an ``events.jsonl`` file.

    ``("truncate", frac)`` chops the file mid-line the way a SIGKILL
    does; the others append a line no JSON event parser should accept.
    Readers must drop the damage and keep every intact event.
    """
    return st.one_of(
        st.tuples(st.just("truncate"), st.floats(0.1, 0.95)),
        st.tuples(st.just("garbage"), st.binary(min_size=1, max_size=64)
                  .map(lambda b: b + b"\n")),
        st.tuples(st.just("non_dict"), st.sampled_from(
            (b"[1, 2, 3]\n", b'"spans"\n', b"42\n", b"null\n"))),
        st.tuples(st.just("blank"), st.just(b"\n\n")),
    )
