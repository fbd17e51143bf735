"""Multi-programmed workload composition.

The paper's framing: prior LLC-management proposals target *multi-programmed*
workloads — independent applications co-scheduled on disjoint cores, where
all interference is destructive and there is no constructive cross-thread
sharing at all. :class:`MultiprogramMix` builds exactly that substrate from
any set of application models: each component runs its (scaled-down) thread
count on its own core range within its own address-space slice, so the
shared LLC sees competing but non-overlapping block streams.

Contrasting the sharing oracle on a mix against the multi-threaded originals
(bench F10) demonstrates the paper's point in reverse: sharing-awareness has
nothing to offer where there is no cross-core sharing.
"""

from typing import List, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng, derive_seed
from repro.trace.interleave import interleave_streams
from repro.trace.trace import Trace
from repro.workloads.base import WorkloadModel
from repro.workloads.registry import get_workload

ADDRESS_SLICE_BLOCKS = 1 << 34
"""Address-space slice per component (block addresses), far above any
model's footprint so components can never alias."""


class MultiprogramMix:
    """Co-schedules several application models on disjoint cores.

    Cores are split evenly across the components (the last component
    receives any slack). Each component's trace is generated independently
    with its own derived seed and then rebased: thread ids shifted onto the
    component's core range, block addresses offset into its address slice.
    """

    def __init__(self, component_names: Sequence[str]):
        if len(component_names) < 2:
            raise ConfigError("a multiprogram mix needs at least 2 components")
        self.component_names = list(component_names)
        self.models: List[WorkloadModel] = [
            get_workload(name) for name in component_names
        ]
        self.name = "mix(" + "+".join(component_names) + ")"

    def generate(
        self,
        num_threads: int = 8,
        scale: int = 16,
        target_accesses: int = 400_000,
        seed: int = 0,
        min_burst: int = 8,
        max_burst: int = 64,
    ) -> Trace:
        """Produce the interleaved multi-programmed trace.

        Takes the arguments of :meth:`repro.workloads.WorkloadModel.generate`,
        so a mix stands in for a single model, but it returns
        ``(target_accesses // components) * components`` accesses, not
        exactly the budget: each component generates an equal share and
        the remainder is dropped (19,998 of 20,000 for three components).
        """
        num_components = len(self.models)
        if num_threads < num_components:
            raise ConfigError(
                f"{num_threads} cores cannot host {num_components} programs"
            )
        per_component = num_threads // num_components
        budget = target_accesses // num_components

        streams = []
        for index, model in enumerate(self.models):
            threads = (
                per_component
                if index < num_components - 1
                else num_threads - per_component * (num_components - 1)
            )
            component_trace = model.generate(
                num_threads=threads,
                scale=scale,
                target_accesses=budget,
                seed=derive_seed(seed, "mix", index, model.name),
                min_burst=min_burst,
                max_burst=max_burst,
            )
            addr_offset = index * ADDRESS_SLICE_BLOCKS * 64
            tids, pcs, addrs, writes = map(
                np.asarray, component_trace.columns())
            for tid in range(threads):
                mine = tids == tid
                streams.append(
                    (pcs[mine], addrs[mine] + addr_offset, writes[mine] != 0))

        placed = budget * num_components  # each component gives its budget
        return interleave_streams(
            streams,
            rng=DeterministicRng(derive_seed(seed, "mix-interleave", self.name)),
            min_burst=min_burst,
            max_burst=max_burst,
            name=(f"{self.name}.t{num_threads}.s{scale}.n{target_accesses}"
                  f".seed{seed}[0:{placed}]"),
        )
