"""Deterministic RNG stream derivation.

Every random draw in the package comes from a generator keyed by a
64-bit user seed plus a small integer key path (axis index, atom index,
stream kind, feature-count index, ...).  Streams keyed differently are
statistically independent, and a given key always yields the same
stream regardless of call order or thread scheduling.
"""

from __future__ import annotations

import numpy as np

# stream kinds used as the last key component
XI_STREAM = 0
G_STREAM = 1
MISC_STREAM = 2

_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4  # SeedSequence's default pool size


def _sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    """``SeedSequence(entropy=seed mod 2^64, spawn_key=key mod 2^32)``, given
    the uint32 entropy words that SeedSequence assembles from those two: the
    seed's low and high words (one word below 2^32), zeros up to the pool
    size when there is a key, then one word per key element.  The pool, and
    so every state it generates, is the same; an array of words skips the
    per-word conversions, which cost about half of a SeedSequence."""
    seed = int(seed) & (2**64 - 1)
    words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    if key:
        words += [0] * (_POOL_WORDS - len(words)) + [int(k) & _MASK32 for k in key]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the (seed, key...) stream."""
    return np.random.default_rng(_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key...) into a fresh 64-bit seed."""
    return int(_sequence(seed, key).generate_state(1, dtype=np.uint64)[0])
