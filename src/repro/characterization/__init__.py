"""Characterization of LLC sharing behaviour (the paper's sections 3-4).

All analyses are :class:`repro.cache.ResidencyObserver` implementations that
attach to any simulated LLC (full-hierarchy or replay):

* :class:`SharingClassifier` — per-residency shared/private classification,
  hit breakdown, read-only vs read-write split, sharing-degree histogram.
* :class:`SharingPhaseTracker` — temporal stability of a block's sharing
  behaviour across consecutive residencies (the quantity fill-time history
  predictors implicitly bet on).
"""

from repro.characterization.hits import HitBreakdown, SharingClassifier, popcount
from repro.characterization.pc_profile import PcProfile, PcSharingProfiler
from repro.characterization.phases import PhaseStats, SharingPhaseTracker
from repro.characterization.report import CharacterizationReport, characterize_stream

__all__ = [
    "HitBreakdown",
    "SharingClassifier",
    "popcount",
    "PcProfile",
    "PcSharingProfiler",
    "PhaseStats",
    "SharingPhaseTracker",
    "CharacterizationReport",
    "characterize_stream",
]
