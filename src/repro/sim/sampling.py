"""Set-sampled LLC simulation.

The standard acceleration of cache studies (UMON/ATD-style): simulate only
every ``1/ratio`` of the LLC's sets and scale the counts back up. Because
block addresses map to sets by their low bits, sampling sets is sampling a
uniform hash of the block space, and miss *ratios* estimated from the
sample converge quickly to the full simulation's.

Used where many configurations must be swept cheaply (the F7 capacity
sweep at full-size geometries); every headline number in the benches is
still produced by full simulation.
"""

from array import array
from dataclasses import dataclass

import numpy as np

from repro.cache.llc import SharedLlc
from repro.cache.stream import LlcStream
from repro.common.config import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.common.stats import ratio
from repro.policies.base import ReplacementPolicy


@dataclass(frozen=True)
class SampledResult:
    """Outcome of a set-sampled replay."""

    policy: str
    stream_name: str
    sample_ratio: int
    sampled_accesses: int
    sampled_hits: int
    sampled_misses: int

    @property
    def miss_ratio(self) -> float:
        """Estimated miss ratio (sample counts cancel the scaling)."""
        return ratio(self.sampled_misses, self.sampled_accesses)

    @property
    def estimated_misses(self) -> int:
        """Sample misses scaled to the full stream."""
        return self.sampled_misses * self.sample_ratio


class SampledLlcSimulator:
    """Replays only the accesses mapping to every ``sample_ratio``-th set.

    The simulated structure is a smaller cache with ``num_sets /
    sample_ratio`` sets and the original associativity; a block participates
    when ``set_index % sample_ratio == offset``. Within the sampled sets the
    simulation is exact, so per-set behaviour (including set-dueling
    policies bound to the smaller geometry) is faithful.
    """

    @staticmethod
    def offset_from_seed(seed: int, sample_ratio: int, *labels) -> int:
        """Derive the sampled-set offset from an experiment seed.

        Campaigns must be reproducible from ``(seed, scenario_id)`` alone,
        so the choice of *which* set slice to sample goes through
        :func:`~repro.common.rng.derive_seed` — never module-level RNG
        state. Extra ``labels`` (scenario ids, stream names) decorrelate
        the slice across cells of one campaign.
        """
        if sample_ratio <= 0:
            raise ConfigError(f"sample_ratio must be positive, got {sample_ratio}")
        return derive_seed(seed, "sample-offset", sample_ratio, *labels) % sample_ratio

    @classmethod
    def from_seed(cls, geometry: CacheGeometry, policy: ReplacementPolicy,
                  seed: int, sample_ratio: int = 16,
                  *labels) -> "SampledLlcSimulator":
        """Construct with the sample-set slice derived from ``seed``."""
        offset = cls.offset_from_seed(seed, sample_ratio, *labels)
        return cls(geometry, policy, sample_ratio=sample_ratio, offset=offset)

    def __init__(self, geometry: CacheGeometry, policy: ReplacementPolicy,
                 sample_ratio: int = 16, offset: int = 0):
        if sample_ratio <= 0 or geometry.num_sets % sample_ratio != 0:
            raise ConfigError(
                f"sample_ratio {sample_ratio} must divide the set count "
                f"{geometry.num_sets}"
            )
        if not 0 <= offset < sample_ratio:
            raise ConfigError(f"offset {offset} outside [0, {sample_ratio})")
        self.full_geometry = geometry
        self.sample_ratio = sample_ratio
        self.offset = offset
        sampled_geometry = CacheGeometry(
            geometry.size_bytes // sample_ratio, geometry.ways,
            geometry.block_bytes,
        )
        self.llc = SharedLlc(sampled_geometry, policy)
        self._full_set_mask = geometry.num_sets - 1

    def run(self, stream: LlcStream) -> SampledResult:
        """Replay the sampled subset of ``stream``."""
        cores, pcs, blocks, writes = stream.columns()
        mask = self._full_set_mask
        ratio_ = self.sample_ratio
        offset = self.offset
        access = self.llc.access
        for i in range(len(cores)):
            block = blocks[i]
            if (block & mask) % ratio_ == offset:
                # Drop the sampled-away index bits so the block maps to the
                # smaller cache's sets uniformly.
                access(cores[i], pcs[i], block // ratio_, writes[i] != 0)
        return SampledResult(
            policy=self.llc.policy.name,
            stream_name=stream.name,
            sample_ratio=ratio_,
            sampled_accesses=self.llc.access_count,
            sampled_hits=self.llc.hits,
            sampled_misses=self.llc.misses,
        )


def sampled_geometry(geometry: CacheGeometry, sample_ratio: int) -> CacheGeometry:
    """The smaller geometry a ``sample_ratio`` sampled replay simulates."""
    if sample_ratio <= 0 or geometry.num_sets % sample_ratio != 0:
        raise ConfigError(
            f"sample_ratio {sample_ratio} must divide the set count "
            f"{geometry.num_sets}"
        )
    return CacheGeometry(
        geometry.size_bytes // sample_ratio, geometry.ways, geometry.block_bytes
    )


def sampled_substream(stream: LlcStream, geometry: CacheGeometry,
                      sample_ratio: int, offset: int) -> LlcStream:
    """Extract the sampled subset of ``stream`` as a standalone stream.

    The returned stream contains exactly the accesses a
    :class:`SampledLlcSimulator` with the same ``(sample_ratio, offset)``
    would replay, with block addresses already folded onto the
    :func:`sampled_geometry` index space (``block // sample_ratio``).
    Replaying it through :func:`repro.sim.multipass.run_policy_on_stream`
    against the sampled geometry therefore reproduces
    :meth:`SampledLlcSimulator.run` bit-for-bit while unlocking the tiered
    fast paths — which is how the fuzz harness affords thousands of
    scenario cells.
    """
    small = sampled_geometry(geometry, sample_ratio)  # validates the ratio
    if not 0 <= offset < sample_ratio:
        raise ConfigError(f"offset {offset} outside [0, {sample_ratio})")
    del small
    name = f"{stream.name}#s{sample_ratio}.{offset}"
    mask = geometry.num_sets - 1
    cores, pcs, blocks, writes = stream.numpy_columns()
    keep = (blocks & mask) % sample_ratio == offset
    out_cores = array("b")
    out_pcs = array("q")
    out_blocks = array("q")
    out_writes = array("b")
    out_cores.frombytes(np.ascontiguousarray(cores[keep]).tobytes())
    out_pcs.frombytes(np.ascontiguousarray(pcs[keep]).tobytes())
    out_blocks.frombytes(
        np.ascontiguousarray(blocks[keep] // sample_ratio).tobytes()
    )
    out_writes.frombytes(np.ascontiguousarray(writes[keep]).tobytes())
    return LlcStream(out_cores, out_pcs, out_blocks, out_writes, name)
