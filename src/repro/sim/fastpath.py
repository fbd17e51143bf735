"""The fast-path gate: every fast replay tier is bit-identical to the
scalar model, so the only reason to turn one off is to check that claim.
``REPRO_SIM_NO_FASTPATH=1`` (or ``--no-fastpath`` on the CLI) forces the
scalar model everywhere; :func:`fastpath_enabled` resolves that gate."""

from typing import Optional

from repro.common.envflag import env_flag

FASTPATH_ENV = "REPRO_SIM_NO_FASTPATH"
"""Environment variable disabling the fast replay tiers when set truthy.

Parsed by :func:`repro.common.envflag.env_flag`: ``=0``/``=false``/``=no``
count as unset (the fast path stays on), anything else disables it.
"""


def fastpath_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve the three-state fast-path gate.

    ``None`` (auto) enables the fast path unless :data:`FASTPATH_ENV` is
    set truthy in the environment (:func:`env_flag` semantics — ``=0`` and
    ``=false`` count as unset); ``True``/``False`` force it on/off
    regardless.
    """
    if flag is not None:
        return flag
    return not env_flag(FASTPATH_ENV)
