"""The replay planner: which engine serves a replay, and why not a faster one.

Every replay of a recorded stream runs on one of three tiers (DESIGN.md
decision 9): the set-partitioned lockstep kernel (``set``, plain LRU
included), its two-phase dueling variant (``dueling``), or the scalar
tier, whose ``backend`` is either a compact native kernel (``compact``,
decisions 11 and 14) or the object model (``model``). No replay takes
the retired ``stack`` tier.
:func:`plan_replay` is the one place that picks among them. It is pure:
it reads no environment variable and builds nothing, so callers resolve
the ``fastpath``/``native`` gates once and
:func:`repro.sim.multipass.run_policy_on_stream` carries the plan out.

Whenever a faster engine declines, the plan says why, as one token of
:data:`REASONS`; the token is stamped on the result, the ``replay``
telemetry span and probe reports, and ``repro-sim runs show`` counts
replays by tier, backend and reason. An oracle annotation built for
another stream is not a decline but a caller error: the planner raises
:class:`~repro.common.errors.SimulationError` before any engine runs.
"""

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.policies.base import REPLAY_DUELING, REPLAY_SCALAR, REPLAY_SET
from repro.policies.dip import BipPolicy, DipPolicy
from repro.policies.lru import LipPolicy, LruPolicy
from repro.policies.nru import NruPolicy
from repro.policies.opt import BeladyOptPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.rrip import BrripPolicy, DrripPolicy, SrripPolicy
from repro.policies.ship import ShipPolicy
from repro.sim.nativepath import BACKEND_COMPACT, BACKEND_MODEL

REASONS = (
    "fastpath-off", "bound", "no-kernel", "hint-source", "observers",
    "native-off", "probe",
)
"""Why a faster engine declined a replay. ``bound``: the policy (or an
oracle wrapper's base) is bound to a geometry and may carry state no
kernel reconstructs; ``no-kernel``: no kernel for this exact class or
oracle base; ``hint-source``: the oracle's hints are not an exact
:class:`repro.oracle.annotate.AnnotationHintSource`; ``observers``:
residency observers need the model's callbacks; ``probe``: an attached
probe has ``fastpath_safe`` False; ``fastpath-off``/``native-off``: a
gate."""

FAMILY_RECENCY = "recency"
FAMILY_RRIP = "rrip"
FAMILY_NRU = "nru"
FAMILY_RANDOM = "random"
FAMILY_OPT = "opt"

REPLAY_KERNELS: Dict[type, Tuple[str, str]] = {
    LruPolicy: (REPLAY_SET, FAMILY_RECENCY),
    LipPolicy: (REPLAY_SET, FAMILY_RECENCY),
    BipPolicy: (REPLAY_SET, FAMILY_RECENCY),
    DipPolicy: (REPLAY_DUELING, FAMILY_RECENCY),
    SrripPolicy: (REPLAY_SET, FAMILY_RRIP),
    BrripPolicy: (REPLAY_SET, FAMILY_RRIP),
    DrripPolicy: (REPLAY_DUELING, FAMILY_RRIP),
    NruPolicy: (REPLAY_SET, FAMILY_NRU),
    RandomPolicy: (REPLAY_SET, FAMILY_RANDOM),
    BeladyOptPolicy: (REPLAY_SET, FAMILY_OPT),
}
"""Exact class -> (replay tier, set-kernel family): the only table of
which class takes which fast tier. :mod:`repro.sim.setpath` selects its
kernels from the family column. Keyed by exact type on purpose: a
subclass may change behaviour the kernels do not model, so it takes the
object model until it gets a row of its own."""

ORACLE_BASES: Dict[type, str] = {
    LruPolicy: REPLAY_SET,
    LipPolicy: REPLAY_SET,
    BipPolicy: REPLAY_SET,
    SrripPolicy: REPLAY_SET,
    BrripPolicy: REPLAY_SET,
    DipPolicy: REPLAY_DUELING,
    DrripPolicy: REPLAY_DUELING,
    ShipPolicy: REPLAY_SCALAR,
}
"""Exact base class -> the tier of an annotation-fed oracle wrapper over
it: the lockstep kernel (``dueling`` over DIP and DRRIP), or, for SHiP's
global SHCT, the scalar tier's compact kernel. NRU, Random and OPT bases
have none."""

_BACKENDS = {REPLAY_SET: "numpy", REPLAY_DUELING: "numpy",
             REPLAY_SCALAR: BACKEND_COMPACT}


@dataclass(frozen=True)
class ReplayPlan:
    """The engine one replay runs on, and why a faster one declined."""

    tier: str
    backend: str
    reason: str = ""


def _model(reason: str) -> ReplayPlan:
    return ReplayPlan(REPLAY_SCALAR, BACKEND_MODEL, reason)


def _check_annotation(policy, stream) -> None:
    """Refuse an oracle annotation built for a stream other than ``stream``.

    The annotation holds one budget per access plus one, read by access
    ordinal. Too short fails mid-replay; too long replays hints meant for
    other accesses without a word, on any engine.
    """
    # Imported lazily: repro.oracle imports the replay runner at module
    # import, so a top-level import here would be circular.
    from repro.oracle.annotate import AnnotationHintSource

    source = getattr(policy, "hint_source", None)
    if type(source) is AnnotationHintSource and \
            len(source.budgets) != len(stream) + 1:
        raise SimulationError(
            f"misaligned oracle annotation: {len(source.budgets)} budgets "
            f"for a {len(stream)}-access stream (expected "
            f"{len(stream) + 1})"
        )


def _kernel_tier(policy) -> Tuple[str, str]:
    """``(tier, decline reason)`` of a policy with no REPLAY_KERNELS row."""
    if type(policy) is ShipPolicy:
        return REPLAY_SCALAR, ""
    from repro.oracle.annotate import AnnotationHintSource
    from repro.oracle.wrapper import SharingAwareWrapper

    if type(policy) is not SharingAwareWrapper or \
            type(policy.base) not in ORACLE_BASES:
        return REPLAY_SCALAR, "no-kernel"
    tier = ORACLE_BASES[type(policy.base)]
    if policy.base.geometry is not None:
        return tier, "bound"
    if type(policy.hint_source) is not AnnotationHintSource:
        return tier, "hint-source"
    return tier, ""


def plan_replay(policy, observers: Sequence, stream, fastpath: bool,
                native: bool) -> ReplayPlan:
    """Plan one replay of ``stream`` under the ``policy`` instance.

    ``fastpath``/``native`` are the resolved gates. Gates off, a bound
    instance or an unsafe probe take the object model; an exact class of
    :data:`REPLAY_KERNELS` takes its tier. An exact unbound oracle
    wrapper over an exact unbound base of :data:`ORACLE_BASES` with an
    exact annotation hint source takes that row's tier, and an exact
    unbound :class:`ShipPolicy` the scalar tier, unless observers are
    attached; the scalar tier's ``compact`` backend also needs ``native``.
    Anything else takes the model. An annotation hint source not aligned
    with ``stream`` raises :class:`~repro.common.errors.SimulationError`
    whatever the gates.
    """
    _check_annotation(policy, stream)
    if not fastpath:
        return _model("fastpath-off")
    if policy.geometry is not None:
        return _model("bound")
    if not all(getattr(o, "fastpath_safe", True) for o in observers):
        return _model("probe")
    kernel = REPLAY_KERNELS.get(type(policy))
    if kernel is not None:
        return ReplayPlan(kernel[0], _BACKENDS[kernel[0]])
    tier, reason = _kernel_tier(policy)
    if not reason and observers:
        reason = "observers"
    if not reason and tier == REPLAY_SCALAR and not native:
        reason = "native-off"
    if reason:
        return _model(reason)
    return ReplayPlan(tier, _BACKENDS[tier])
