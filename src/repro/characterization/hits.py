"""Shared-vs-private residency classification and hit accounting.

Definitions (paper section 2): a block is **shared in a residency** when at
least two distinct cores issue demand accesses to it between its fill and
its eviction; otherwise the residency is **private**. A shared residency is
**read-only shared** when no core wrote during it, else **read-write
shared**. Hits are attributed to the classification of the residency that
served them.
"""

from array import array
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.cache.llc import ResidencyObserver
from repro.common.stats import ratio


def popcount(mask: int) -> int:
    """Number of set bits (sharer count of a core mask)."""
    return mask.bit_count()


@dataclass
class HitBreakdown:
    """Aggregated residency/hit statistics of one simulated LLC run."""

    residencies: int = 0
    shared_residencies: int = 0
    ro_shared_residencies: int = 0
    rw_shared_residencies: int = 0
    hits: int = 0
    shared_hits: int = 0
    ro_shared_hits: int = 0
    rw_shared_hits: int = 0
    dead_residencies: int = 0
    dead_private_residencies: int = 0
    degree_residencies: Dict[int, int] = field(default_factory=dict)
    degree_hits: Dict[int, int] = field(default_factory=dict)

    @property
    def private_residencies(self) -> int:
        """Residencies touched by exactly one core."""
        return self.residencies - self.shared_residencies

    @property
    def private_hits(self) -> int:
        """Hits served by private residencies."""
        return self.hits - self.shared_hits

    @property
    def shared_residency_fraction(self) -> float:
        """Fraction of residencies that were shared (F2 x-series)."""
        return ratio(self.shared_residencies, self.residencies)

    @property
    def shared_hit_fraction(self) -> float:
        """Fraction of LLC hits served by shared residencies (F1)."""
        return ratio(self.shared_hits, self.hits)

    @property
    def hit_density_ratio(self) -> float:
        """Hits-per-shared-residency over hits-per-residency (F2).

        Values above 1 mean shared blocks earn a disproportionate share of
        hits — the paper's motivation for protecting them.
        """
        overall = ratio(self.hits, self.residencies)
        shared = ratio(self.shared_hits, self.shared_residencies)
        return ratio(shared, overall)

    @property
    def ro_fraction_of_shared_hits(self) -> float:
        """Read-only share of the shared-residency hits (F3)."""
        return ratio(self.ro_shared_hits, self.shared_hits)

    @property
    def dead_fill_fraction(self) -> float:
        """Fraction of residencies that never produced a hit."""
        return ratio(self.dead_residencies, self.residencies)


_QUEUE_LIMIT = 3 << 16
"""Queued callback values (three per residency) that trigger a reduction."""


class SharingClassifier(ResidencyObserver):
    """Observer accumulating a :class:`HitBreakdown`.

    The classification rule is one reduction, :meth:`_classify`, over
    three per-residency columns: hits, sharer count (the core mask's
    popcount) and whether any core wrote. A set-tier replay hands it the
    walk's columns (:meth:`consume_walk`), so there the classifier costs a
    few numpy passes per replay and no callback. On the object model each
    :meth:`residency_ended` queues the same three values, and the queue is
    reduced by the same rule every 65,536 residencies and whenever
    :attr:`breakdown` is read. Counts accumulate across replays either way.
    """

    def __init__(self):
        self._breakdown = HitBreakdown()
        self._queue = array("q")

    @property
    def breakdown(self) -> HitBreakdown:
        """Everything classified so far, queued callbacks included."""
        self._drain()
        return self._breakdown

    def consume_walk(self, walk) -> bool:
        masks = walk.res_core_mask
        if masks.dtype == object:
            sharers = np.array([popcount(m) for m in masks.tolist()],
                               dtype=np.int64)
        else:
            sharers = np.bitwise_count(masks)
        self._classify(walk.res_hits, sharers, walk.res_write_mask != 0)
        return True

    def residency_ended(
        self, block, set_index, fill_ordinal, end_ordinal, fill_pc, fill_core,
        core_mask, write_mask, hits, other_hits, forced,
    ) -> None:
        queue = self._queue
        queue.extend((hits, popcount(core_mask), write_mask != 0))
        if len(queue) >= _QUEUE_LIMIT:
            self._drain()

    def _drain(self) -> None:
        if self._queue:
            queued = np.frombuffer(self._queue, dtype=np.int64).reshape(-1, 3)
            self._classify(queued[:, 0], queued[:, 1], queued[:, 2] != 0)
            self._queue = array("q")

    def _classify(self, hits, sharers, written) -> None:
        """Add residencies, given as aligned columns, to the breakdown.

        A residency is shared when ``sharers >= 2``, read-write shared when
        also ``written``, and dead when it served no hit.
        """
        b = self._breakdown
        shared = sharers >= 2
        rw = shared & written
        ro = shared & ~written
        dead = hits == 0
        b.residencies += len(hits)
        b.hits += int(hits.sum())
        b.shared_residencies += int(np.count_nonzero(shared))
        b.shared_hits += int(hits[shared].sum())
        b.rw_shared_residencies += int(np.count_nonzero(rw))
        b.rw_shared_hits += int(hits[rw].sum())
        b.ro_shared_residencies += int(np.count_nonzero(ro))
        b.ro_shared_hits += int(hits[ro].sum())
        b.dead_residencies += int(np.count_nonzero(dead))
        b.dead_private_residencies += int(np.count_nonzero(dead & ~shared))
        residencies = np.bincount(sharers)
        # Float weights sum integers exactly below 2**53.
        degree_hits = np.bincount(sharers, weights=hits)
        for degree in np.flatnonzero(residencies).tolist():
            b.degree_residencies[degree] = (
                b.degree_residencies.get(degree, 0) + int(residencies[degree]))
            b.degree_hits[degree] = (
                b.degree_hits.get(degree, 0) + int(degree_hits[degree]))
