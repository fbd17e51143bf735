"""The generic sharing oracle (the paper's section 5).

The oracle answers, at fill time, "will this block be shared during the
residency that starts now?" — information no real controller has, obtained
here by a prior pass over the same recorded LLC stream. The
:class:`SharingAwareWrapper` composes that answer with *any* base
replacement policy: predicted-shared fills are protected (exempted from
victim selection while unprotected candidates exist, and/or promoted at
insertion), everything else is left to the base policy. The gap between the
wrapped and plain policy quantifies the headroom sharing-awareness offers —
the paper's headline 6%/10% average LRU miss reductions at 4MB/8MB.
"""

from repro.oracle.annotate import AnnotationHintSource, build_stream_annotation
from repro.oracle.wrapper import (
    PROTECTION_MODES,
    RELEASE_POLICIES,
    SharingAwareWrapper,
)
from repro.oracle.runner import (
    ANNOTATION_MEMO_CAPACITY,
    DEFAULT_HORIZON_TURNOVERS,
    OracleStudyResult,
    annotation_memo_clear,
    annotation_memo_stats,
    run_oracle_study,
)

__all__ = [
    "AnnotationHintSource",
    "build_stream_annotation",
    "PROTECTION_MODES",
    "RELEASE_POLICIES",
    "SharingAwareWrapper",
    "ANNOTATION_MEMO_CAPACITY",
    "DEFAULT_HORIZON_TURNOVERS",
    "OracleStudyResult",
    "annotation_memo_clear",
    "annotation_memo_stats",
    "run_oracle_study",
]
