"""SPLASH-2 application models.

Same conventions as ``repro.workloads.parsec``: footprints are in 64-byte
blocks at full scale. The models follow the classic SPLASH-2 sharing
characterizations: barnes/fmm read-share a tree and migrate body records,
ocean is a pure stencil code, radix alternates private histogramming with an
all-to-all permutation, water migrates molecule records under pairwise
force reads.
"""

from repro.common.rng import DeterministicRng, bulk_randrange
from repro.workloads.base import GeneratorContext, WorkloadModel
from repro.workloads.kernels import (
    emit_halo_exchange,
    emit_lock_hotspot,
    emit_migratory,
    emit_private_hotset,
    emit_private_stream,
    emit_reduction,
    emit_shared_readonly,
)
from repro.workloads.layout import Region


def _scatter(ctx: GeneratorContext, rng: DeterministicRng, dest: Region,
             pc: int) -> None:
    """Each thread in turn writes ``dest.num_blocks // num_threads`` blocks
    of ``dest`` drawn uniformly from one generator (over-drawn: the caller
    spawns ``rng`` for this call)."""
    per_thread = dest.num_blocks // ctx.num_threads
    blocks = dest.block(bulk_randrange(
        rng, dest.num_blocks, per_thread * ctx.num_threads))
    for tid in range(ctx.num_threads):
        mine = blocks[tid * per_thread:(tid + 1) * per_thread]
        ctx.streams.emit(tid, pc, mine * 64, True)


class Barnes(WorkloadModel):
    """Barnes-Hut N-body: read-shared octree plus migrating bodies."""

    name = "barnes"
    suite = "splash2"
    description = "read-shared octree traversals + migratory body records"

    def setup(self, ctx: GeneratorContext) -> None:
        self.tree = ctx.regions.allocate("octree", ctx.scaled(112 * 1024))
        self.bodies = ctx.regions.allocate("bodies", ctx.scaled(64 * 1024))
        partials = ctx.regions.allocate("partials", ctx.scaled(128) * ctx.num_threads)
        self.partial_parts = partials.split(ctx.num_threads)
        scratch = ctx.regions.allocate("scratch", ctx.scaled(64 * 1024))
        self.scratch_parts = scratch.split(ctx.num_threads)
        self.pc_scratch = ctx.pcs.allocate()
        self.pc_walk = ctx.pcs.allocate()
        self.pc_body = ctx.pcs.allocate()
        self.pc_partial_w = ctx.pcs.allocate()
        self.pc_partial_r = ctx.pcs.allocate()

    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        emit_shared_readonly(
            ctx.streams, ctx.rng.spawn("walk", iteration), self.tree,
            self.pc_walk, accesses_per_thread=2048, skew=1.2,
        )
        emit_migratory(
            ctx.streams, ctx.rng.spawn("bodies", iteration), self.bodies,
            self.pc_body, items=24 * ctx.num_threads, item_blocks=2, hops=2,
        )
        emit_private_stream(ctx.streams, self.scratch_parts, self.pc_scratch)
        emit_reduction(
            ctx.streams, self.partial_parts, self.pc_partial_w, self.pc_partial_r,
        )


class Fmm(WorkloadModel):
    """Fast multipole method: shared tree plus pair-interaction lists."""

    name = "fmm"
    suite = "splash2"
    description = "read-shared multipole tree + pairwise interaction cells"

    def setup(self, ctx: GeneratorContext) -> None:
        self.tree = ctx.regions.allocate("mtree", ctx.scaled(96 * 1024))
        self.cells = ctx.regions.allocate("cells", ctx.scaled(32 * 1024))
        scratch = ctx.regions.allocate("scratch", ctx.scaled(64 * 1024))
        self.scratch_parts = scratch.split(ctx.num_threads)
        self.pc_tree = ctx.pcs.allocate()
        self.pc_cell = ctx.pcs.allocate()
        self.pc_scratch = ctx.pcs.allocate()

    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        emit_shared_readonly(
            ctx.streams, ctx.rng.spawn("tree", iteration), self.tree,
            self.pc_tree, accesses_per_thread=1536, skew=1.2,
        )
        emit_migratory(
            ctx.streams, ctx.rng.spawn("cells", iteration), self.cells,
            self.pc_cell, items=16 * ctx.num_threads, item_blocks=4,
            hops=2, rmw_repeats=1,
        )
        emit_private_stream(ctx.streams, self.scratch_parts, self.pc_scratch)


class Ocean(WorkloadModel):
    """Ocean current simulation: multigrid stencils, boundary sharing only."""

    name = "ocean"
    suite = "splash2"
    description = "two large halo-exchange grids; sharing confined to band edges"

    def setup(self, ctx: GeneratorContext) -> None:
        self.grid_a = ctx.regions.allocate("grid_a", ctx.scaled(128 * 1024))
        self.grid_b = ctx.regions.allocate("grid_b", ctx.scaled(128 * 1024))
        self.row_blocks = max(4, ctx.scaled(64 * 1024) // 512)
        self.pc_compute_a = ctx.pcs.allocate()
        self.pc_halo_a = ctx.pcs.allocate()
        self.pc_compute_b = ctx.pcs.allocate()
        self.pc_halo_b = ctx.pcs.allocate()

    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        emit_halo_exchange(
            ctx.streams, self.grid_a, self.row_blocks,
            self.pc_compute_a, self.pc_halo_a,
        )
        emit_halo_exchange(
            ctx.streams, self.grid_b, self.row_blocks,
            self.pc_compute_b, self.pc_halo_b,
        )


class Radix(WorkloadModel):
    """Radix sort: private histogram pass, then all-to-all permutation.

    The permutation writes each destination partition from many source
    threads, and the next iteration's read pass consumes the permuted data —
    cross-phase producer-consumer sharing over the full key array.
    """

    name = "radix"
    suite = "splash2"
    description = "private histogram + all-to-all permutation over shared keys"

    def setup(self, ctx: GeneratorContext) -> None:
        keys = ctx.regions.allocate("keys", ctx.scaled(80 * 1024))
        self.keys = keys
        self.key_parts = keys.split(ctx.num_threads)
        self.dest = ctx.regions.allocate("dest", ctx.scaled(80 * 1024))
        self.dest_parts = self.dest.split(ctx.num_threads)
        partials = ctx.regions.allocate("hist", ctx.scaled(256) * ctx.num_threads)
        self.partial_parts = partials.split(ctx.num_threads)
        self.pc_read = ctx.pcs.allocate()
        self.pc_hist_w = ctx.pcs.allocate()
        self.pc_hist_r = ctx.pcs.allocate()
        self.pc_scatter = ctx.pcs.allocate()

    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        # The source and destination arrays ping-pong between iterations:
        # this phase's scattered writes are the next phase's key reads, so
        # destination blocks are written by one thread and later read by
        # another — cross-phase producer-consumer sharing.
        source_parts, dest = (
            (self.key_parts, self.dest)
            if iteration % 2 == 0
            else (self.dest_parts, self.keys)
        )
        # Histogram: each thread streams its own partition of the source.
        emit_private_stream(ctx.streams, source_parts, self.pc_read)
        # Prefix sums over per-thread histograms (reduction sharing).
        emit_reduction(
            ctx.streams, self.partial_parts, self.pc_hist_w, self.pc_hist_r,
        )
        # Permutation: every thread scatters into random destination blocks.
        _scatter(ctx, ctx.rng.spawn("scatter", iteration), dest,
                 self.pc_scatter)


class Water(WorkloadModel):
    """Water molecular dynamics: migratory molecules, pairwise force reads."""

    name = "water"
    suite = "splash2"
    description = "migratory molecule records + read-shared pairwise forces"

    def setup(self, ctx: GeneratorContext) -> None:
        self.molecules = ctx.regions.allocate("molecules", ctx.scaled(96 * 1024))
        partials = ctx.regions.allocate("partials", ctx.scaled(64) * ctx.num_threads)
        self.partial_parts = partials.split(ctx.num_threads)
        self.locks = ctx.regions.allocate("locks", ctx.scaled(16))
        neighbors = ctx.regions.allocate("neighbors", ctx.scaled(64 * 1024))
        self.neighbor_parts = neighbors.split(ctx.num_threads)
        self.pc_neighbors = ctx.pcs.allocate()
        self.pc_pair = ctx.pcs.allocate()
        self.pc_update = ctx.pcs.allocate()
        self.pc_partial_w = ctx.pcs.allocate()
        self.pc_partial_r = ctx.pcs.allocate()
        self.pc_lock = ctx.pcs.allocate()

    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        emit_shared_readonly(
            ctx.streams, ctx.rng.spawn("pair", iteration), self.molecules,
            self.pc_pair, accesses_per_thread=1024, skew=1.0,
        )
        emit_migratory(
            ctx.streams, ctx.rng.spawn("update", iteration), self.molecules,
            self.pc_update, items=16 * ctx.num_threads, item_blocks=2,
            hops=2, rmw_repeats=1,
        )
        emit_reduction(
            ctx.streams, self.partial_parts, self.pc_partial_w, self.pc_partial_r,
        )
        emit_private_stream(ctx.streams, self.neighbor_parts, self.pc_neighbors)
        emit_lock_hotspot(
            ctx.streams, ctx.rng.spawn("locks", iteration), self.locks,
            self.pc_lock, rounds_per_thread=16,
        )


class Fft(WorkloadModel):
    """Six-step FFT: private butterfly stages around an all-to-all transpose.

    Like radix, the transpose writes each destination partition from every
    source thread and the next stage reads the transposed data — cross-phase
    producer-consumer sharing over the whole matrix; the matrices ping-pong
    between iterations.
    """

    name = "fft"
    suite = "splash2"
    description = "private butterfly stages + all-to-all matrix transpose"

    def setup(self, ctx: GeneratorContext) -> None:
        self.matrix_a = ctx.regions.allocate("matrix_a", ctx.scaled(72 * 1024))
        self.matrix_b = ctx.regions.allocate("matrix_b", ctx.scaled(72 * 1024))
        self.a_parts = self.matrix_a.split(ctx.num_threads)
        self.b_parts = self.matrix_b.split(ctx.num_threads)
        self.roots = ctx.regions.allocate("roots", ctx.scaled(4 * 1024))
        self.pc_butterfly = ctx.pcs.allocate()
        self.pc_transpose = ctx.pcs.allocate()
        self.pc_roots = ctx.pcs.allocate()

    def phase(self, ctx: GeneratorContext, iteration: int) -> None:
        source_parts, dest = (
            (self.a_parts, self.matrix_b)
            if iteration % 2 == 0
            else (self.b_parts, self.matrix_a)
        )
        emit_shared_readonly(
            ctx.streams, ctx.rng.spawn("roots", iteration), self.roots,
            self.pc_roots, accesses_per_thread=256, skew=1.4,
        )
        # Local butterfly computation over the owned partition.
        emit_private_stream(
            ctx.streams, source_parts, self.pc_butterfly,
            write_fraction=0.5, rng=ctx.rng.spawn("butterfly", iteration),
        )
        # Transpose: scatter writes across the whole destination matrix.
        _scatter(ctx, ctx.rng.spawn("transpose", iteration), dest,
                 self.pc_transpose)


SPLASH2_MODELS = (Barnes, Fft, Fmm, Ocean, Radix, Water)
