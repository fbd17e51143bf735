"""Tests for multi-programmed workload mixes."""

import pytest

from repro.common.errors import ConfigError
from repro.trace.stats import compute_trace_statistics
from repro.workloads.multiprogram import ADDRESS_SLICE_BLOCKS, MultiprogramMix


def generate_mix(names=("swaptions", "canneal"), threads=4, accesses=8_000):
    return MultiprogramMix(names).generate(
        num_threads=threads, scale=128, target_accesses=accesses, seed=5
    )


class TestMultiprogramMix:
    def test_requires_two_components(self):
        with pytest.raises(ConfigError):
            MultiprogramMix(["canneal"])

    def test_requires_enough_cores(self):
        with pytest.raises(ConfigError):
            MultiprogramMix(["canneal", "dedup", "water"]).generate(
                num_threads=2, scale=128, target_accesses=100
            )

    def test_name(self):
        assert MultiprogramMix(["x264", "water"]).name == "mix(x264+water)"

    def test_components_on_disjoint_cores(self):
        trace = generate_mix()
        # Components split 4 cores as [0,1] and [2,3]; address slices tell
        # us which component each access belongs to.
        for access in trace:
            component = access.addr // (ADDRESS_SLICE_BLOCKS * 64)
            expected_cores = {0, 1} if component == 0 else {2, 3}
            assert access.tid in expected_cores

    def test_no_cross_component_sharing(self):
        trace = generate_mix()
        stats = compute_trace_statistics(trace)
        # swaptions is nearly private and canneal's threads share, but no
        # block is ever shared ACROSS components; with a sharing-free first
        # component the mix's sharing comes only from within canneal.
        slice_bytes = ADDRESS_SLICE_BLOCKS * 64
        seen = {}
        for access in trace:
            component = access.addr // slice_bytes
            block = access.addr // 64
            seen.setdefault(block, set()).add(component)
        assert all(len(components) == 1 for components in seen.values())

    def test_total_length(self):
        trace = generate_mix(accesses=8_000)
        assert len(trace) == 8_000

    def test_length_drops_the_budget_remainder(self):
        # Each of three components gets 20_000 // 3 accesses.
        trace = generate_mix(("swaptions", "canneal", "water"),
                             accesses=20_000)
        assert len(trace) == 19_998

    def test_deterministic(self):
        a = generate_mix()
        b = generate_mix()
        assert list(a.addrs) == list(b.addrs)
        assert list(a.tids) == list(b.tids)

    def test_uneven_core_split(self):
        trace = MultiprogramMix(["swaptions", "water", "dedup"]).generate(
            num_threads=8, scale=128, target_accesses=6_000, seed=1
        )
        # 8 cores over 3 programs: 2 + 2 + 4.
        assert trace.num_threads <= 8

    def test_multithreaded_sharing_preserved_within_component(self):
        trace = generate_mix(names=("streamcluster", "swaptions"))
        stats = compute_trace_statistics(trace)
        # streamcluster's internal sharing survives the mix.
        assert stats.shared_blocks > 0
