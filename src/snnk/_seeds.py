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


def _sequence(seed: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(seed) & (2**64 - 1),
        spawn_key=tuple(int(k) & _MASK32 for k in key),
    )


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for the (seed, key...) stream."""
    return np.random.default_rng(_sequence(seed, key))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key...) into a fresh 64-bit seed."""
    return int(_sequence(seed, key).generate_state(1, dtype=np.uint64)[0])
