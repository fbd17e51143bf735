"""Name-based policy construction.

OPT is deliberately absent: it needs a recorded stream's next-use array and
is built by ``repro.sim.multipass`` instead.
"""

from typing import Callable, Dict

from repro.common.errors import ConfigError
from repro.policies.base import ReplacementPolicy
from repro.policies.dip import BipPolicy, DipPolicy
from repro.policies.lru import LipPolicy, LruPolicy
from repro.policies.nru import NruPolicy
from repro.policies.random_policy import RandomPolicy
from repro.policies.rrip import BrripPolicy, DrripPolicy, SrripPolicy
from repro.policies.ship import ShipPolicy

_FACTORIES: Dict[str, Callable[[int], ReplacementPolicy]] = {
    "lru": lambda seed: LruPolicy(),
    "lip": lambda seed: LipPolicy(),
    "nru": lambda seed: NruPolicy(),
    "random": lambda seed: RandomPolicy(seed),
    "bip": lambda seed: BipPolicy(seed),
    "dip": lambda seed: DipPolicy(seed),
    "srrip": lambda seed: SrripPolicy(),
    "brrip": lambda seed: BrripPolicy(seed),
    "drrip": lambda seed: DrripPolicy(seed),
    "ship": lambda seed: ShipPolicy(),
}

POLICY_NAMES = tuple(sorted(_FACTORIES))
"""All policy names constructible by :func:`make_policy`."""


def make_policy(name: str, seed: int = 0) -> ReplacementPolicy:
    """Construct an unbound policy by name.

    Args:
        name: one of :data:`POLICY_NAMES`.
        seed: RNG seed for the stochastic policies (random/BIP/DIP/BRRIP/
            DRRIP); ignored by deterministic ones.

    Raises:
        ConfigError: for an unknown name.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown policy {name!r}; choose from {POLICY_NAMES}"
        ) from None
    return factory(seed)
