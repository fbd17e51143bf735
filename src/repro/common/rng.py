"""Deterministic random-number utilities.

Every stochastic component in the library (workload generators, the Random
replacement policy, BIP's epsilon insertions) draws from a
:class:`DeterministicRng` seeded through :func:`derive_seed`, so a whole
experiment is reproducible bit-for-bit from a single base seed.

The bulk converters (:func:`draw_words`, :func:`bulk_random` and
:func:`randrange_words`) give exactly the values that successive scalar
``random()`` and ``randrange(n)`` calls return, from one ``getrandbits``
call, so vectorized generators and replay kernels stay bit-identical to
the scalar code they replace (``tests/common/test_rng.py`` pins them).
"""

import random
import zlib
from math import isqrt

import numpy as np


def derive_seed(base_seed: int, *components) -> int:
    """Derive a child seed from a base seed and a sequence of labels.

    Mixing goes through CRC32 of the rendered components so that distinct
    label tuples give uncorrelated child streams while remaining stable
    across processes and Python versions (unlike ``hash``).
    """
    text = "/".join(str(part) for part in components)
    mixed = zlib.crc32(text.encode("utf-8"))
    return (base_seed * 0x9E3779B1 + mixed) & 0xFFFFFFFF


class DeterministicRng(random.Random):
    """A ``random.Random`` whose construction documents determinism intent.

    Behaviourally identical to ``random.Random(seed)``; the subclass exists
    so grepping for nondeterminism only has to look for bare ``random.``
    usage.
    """

    def __init__(self, seed: int):
        super().__init__(seed)
        self.initial_seed = seed

    def spawn(self, *components) -> "DeterministicRng":
        """Create an independent child RNG keyed by ``components``."""
        return DeterministicRng(derive_seed(self.initial_seed, *components))


def draw_words(rng: random.Random, count: int) -> np.ndarray:
    """The generator's next ``count`` 32-bit outputs, as ``uint32``.

    ``getrandbits(32 * count)`` returns them least significant first, and
    leaves the generator exactly where ``count`` single outputs would.
    """
    if count <= 0:
        return np.empty(0, dtype=np.uint32)
    return np.frombuffer(
        rng.getrandbits(32 * count).to_bytes(4 * count, "little"), dtype="<u4")


def bulk_random(rng: random.Random, k: int) -> np.ndarray:
    """The next ``k`` values of ``rng.random()``, drawn with one call.

    ``random()`` takes two outputs ``w0, w1`` and returns
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``; every step is exact in
    float64, so the values are identical, and the generator ends where
    ``k`` scalar calls leave it.
    """
    words = draw_words(rng, 2 * k).astype(np.int64)
    return ((words[0::2] >> 5 << 26) + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0)


def randrange_words(words: np.ndarray, n: int):
    """What ``randrange(n)`` makes of each of ``words`` (32-bit outputs).

    ``randrange(n)`` for ``n < 2**32`` keeps an output's top
    ``n.bit_length()`` bits and returns the first such value below ``n``,
    rejecting the rest. Returns ``(values, kept)``: the shifted words and
    the mask of those ``randrange`` returns; ``values[kept]`` is the
    sequence that successive calls return. (CPython guarantees only the
    sequence of ``random()`` across releases; the pinning test is where a
    change to ``randrange`` shows first.)
    """
    values = words >> (32 - n.bit_length())
    return values, values < n


def bulk_randrange(rng: random.Random, n: int, k: int) -> np.ndarray:
    """The ``k`` values that successive ``rng.randrange(n)`` calls return.

    Over-draws: the generator ends past where ``k`` scalar calls leave it,
    because rejected outputs are only known after the fact. Use it only on
    a generator that the caller spawned for this call and then drops.
    """
    if n <= 0:
        raise ValueError(f"empty range for randrange({n})")
    if n.bit_length() > 32:
        return np.array([rng.randrange(n) for __ in range(k)], dtype=np.int64)
    parts, have = [np.empty(0, dtype=np.uint32)], 0
    while have < k:
        # An output is kept with probability above one half, so one round
        # runs short about once in 10^8 calls.
        need = k - have
        values, kept = randrange_words(
            draw_words(rng, 2 * need + 8 * isqrt(need) + 32), n)
        parts.append(values[kept])
        have += len(parts[-1])
    return np.concatenate(parts)[:k].astype(np.int64)
