"""Deterministic 64-bit random generator used by every randomized battery.

The generator is splitmix64 (Steele/Lea/Flood mixing function).  It is fixed
here, rather than delegated to a library, so that a (seed, trial) pair replays
to the identical stream on any platform and any implementation language; the
counterexample dumps written by the inequality batteries reference these seeds.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """One splitmix64 output step applied to a 64-bit state value."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive), by rejection."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # rejection keeps the distribution exactly uniform
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)


class SeedOutOfRange(ValueError):
    """A base seed outside [0, 2^64), which would otherwise wrap onto another."""


def derive_seed(base: int, *parts) -> int:
    """Stable sub-seed for a named battery/trial: hash parts into the base.

    Strings hash byte-by-byte through mix64 so the derivation is portable.
    The base must lie in [0, 2^64) (SeedOutOfRange otherwise).
    """
    if not 0 <= base <= _MASK:
        raise SeedOutOfRange(f"seed must be in [0, 2^64), got {base}")
    h = base
    for part in parts:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                h = mix64(h ^ b)
        elif isinstance(part, (tuple, list)):
            for item in part:
                h = mix64(h ^ (int(item) & _MASK))
        else:
            h = mix64(h ^ (int(part) & _MASK))
    return h


def index_u64(seed: int, n: int) -> int:
    """Stateless stream: the n-th splitmix64 output for the given seed.

    Used where random access by index is needed (e.g. i.i.d. symbol orbits),
    so that orbits can be sampled at scattered positions without generating
    every intermediate draw.
    """
    return mix64((seed + (n + 1) * _GAMMA) & _MASK)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """`mix64` of every word of a uint64 array.

    The same splitmix64 step in numpy's wrapping uint64 arithmetic: every
    product of `mix64` is taken mod 2^64, so the outputs are bit-for-bit
    those of the scalar form.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def index_u64_array(seed, positions) -> np.ndarray:
    """`index_u64(seed, n)` for every n in `positions`, as a uint64 array.

    `seed` is one int or an array of uint64 seeds; an array broadcasts
    against `positions`, so a position array paired element by element with
    its seeds draws output n of each seed's own stream.
    """
    if isinstance(seed, int):
        seed = seed & _MASK
    z = np.asarray(positions, dtype=np.int64).astype(np.uint64) + np.uint64(1)
    return mix64_array(z * np.uint64(_GAMMA) + np.asarray(seed, dtype=np.uint64))
