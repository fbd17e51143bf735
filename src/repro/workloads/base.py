"""Workload model framework.

A :class:`WorkloadModel` owns an application's *structure*: which regions it
allocates, which kernels run in each phase, and how phases repeat. The
framework owns everything mechanical: deterministic seeding, footprint
scaling, phase iteration until the access budget is met, interleaving, and
trace naming.
"""

from abc import ABC, abstractmethod

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng, derive_seed
from repro.trace.interleave import interleave_streams
from repro.trace.trace import Trace
from repro.workloads.kernels import Streams
from repro.workloads.layout import PcAllocator, RegionAllocator


class GeneratorContext:
    """Mutable state threaded through a model's setup and phase methods.

    Attributes:
        num_threads: thread count of the generated application.
        scale: capacity divisor matching the simulated machine's scale; the
            model's full-size footprints are divided by this.
        rng: deterministic RNG for the whole generation.
        regions: address-space allocator.
        pcs: program-counter allocator.
        streams: per-thread access columns being accumulated.
    """

    MIN_REGION_BLOCKS = 4

    def __init__(self, num_threads: int, scale: int, seed: int):
        if num_threads <= 0:
            raise ConfigError(f"num_threads must be positive, got {num_threads}")
        if scale <= 0:
            raise ConfigError(f"scale must be positive, got {scale}")
        self.num_threads = num_threads
        self.scale = scale
        self.rng = DeterministicRng(seed)
        self.regions = RegionAllocator()
        self.pcs = PcAllocator()
        self.streams = Streams(num_threads)

    def scaled(self, full_size_blocks: int) -> int:
        """Scale a full-size footprint (in blocks) down by ``self.scale``."""
        return max(self.MIN_REGION_BLOCKS, full_size_blocks // self.scale)

    def total_emitted(self) -> int:
        """Accesses emitted so far across all threads."""
        return self.streams.total


class WorkloadModel(ABC):
    """Base class of all application models.

    Subclasses set :attr:`name`, :attr:`suite`, :attr:`description` and
    implement :meth:`setup` (allocate regions and PCs once) and
    :meth:`phase` (emit one outer-loop iteration of the application).
    """

    name: str = ""
    suite: str = ""
    description: str = ""

    MAX_PHASES = 10_000

    @abstractmethod
    def setup(self, ctx: GeneratorContext) -> None:
        """Allocate this model's regions and PC ranges into ``ctx``."""

    @abstractmethod
    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        """Emit one phase iteration of accesses into ``ctx.streams``."""

    def generate(
        self,
        num_threads: int = 8,
        scale: int = 16,
        target_accesses: int = 400_000,
        seed: int = 0,
        min_burst: int = 8,
        max_burst: int = 64,
    ) -> Trace:
        """Produce a globally interleaved trace of roughly ``target_accesses``.

        Phases repeat until the budget is met, then the interleaved trace is
        truncated to exactly ``target_accesses`` (or fewer only if a single
        phase emits nothing, which is a model bug and raises).

        Args:
            num_threads: application thread count.
            scale: footprint divisor; match the machine profile's scale.
            target_accesses: total access budget.
            seed: base seed; the model name is mixed in so different apps get
                independent streams from the same seed.
            min_burst: interleaver minimum burst.
            max_burst: interleaver maximum burst.
        """
        if target_accesses <= 0:
            raise ConfigError(f"target_accesses must be positive, got {target_accesses}")
        ctx = GeneratorContext(
            num_threads=num_threads,
            scale=scale,
            seed=derive_seed(seed, "workload", self.name),
        )
        self.setup(ctx)
        iteration = 0
        while ctx.total_emitted() < target_accesses:
            before = ctx.total_emitted()
            self.phase(ctx, iteration)
            if ctx.total_emitted() == before:
                raise ConfigError(
                    f"model {self.name!r} phase {iteration} emitted no accesses"
                )
            iteration += 1
            if iteration > self.MAX_PHASES:
                raise ConfigError(
                    f"model {self.name!r} exceeded {self.MAX_PHASES} phases "
                    f"without reaching the access budget"
                )
        return interleave_streams(
            ctx.streams.columns(),
            rng=ctx.rng.spawn("interleave"),
            min_burst=min_burst,
            max_burst=max_burst,
            name=(f"{self.name}.t{num_threads}.s{scale}.n{target_accesses}"
                  f".seed{seed}[0:{target_accesses}]"),
            limit=target_accesses,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, suite={self.suite!r})"
