"""Coherence substrate: sharer directory for the private cache levels.

The CMP hierarchy keeps the private L1/L2 caches coherent with an
invalidation protocol. For a functional (hit/miss) study only the *sharer
sets* matter — which cores hold a valid private copy of each block — so the
directory tracks exactly that, as a bitmask per block.
"""

from repro.coherence.directory import Directory

__all__ = ["Directory"]
