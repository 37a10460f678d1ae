"""Survivor sets of prime progressions inside one block.

A block [lo, hi) carries one arithmetic progression per prime q (the multiples
of q that land in the block).  A point is deleted when some point of a
*different* progression, also inside the block, lies within distance d of it.
Coincident points (a common multiple of two of the primes) are at distance 0
from each other and therefore die on both sides.

So for d >= 0 the survivor sets of the progressions are disjoint, and their
union is a sort of their concatenation: no point needs to be removed, and the
size of the union is the sum of the sizes.  The strictly increasing check of
the sequence store guards this at run time.

`survivors_by_progression` alone decides block contents: the ledger sums its
sizes (`block_count`) while choosing block endpoints, and the sequence store
sorts its arrays of every block into one element array.  A brute-force
oracle in the test suite re-derives them point by point.
"""

from __future__ import annotations

import numpy as np


def _progression_points(q: int, lo: int, hi: int) -> np.ndarray:
    """Multiples of q in [lo, hi) as an int64 array."""
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    start = -(-lo // q) * q
    return np.arange(start, hi, q, dtype=np.int64)


def survivors_by_progression(primes, d: int, lo: int,
                             hi: int) -> list[np.ndarray]:
    """Survivor arrays of the block [lo, hi), indexed like `primes`."""
    primes = list(primes)
    if not primes:
        raise ValueError("a block needs at least one progression")
    if len(set(primes)) != len(primes):
        raise ValueError("progression moduli must be distinct")
    if d < 0:
        raise ValueError(f"deletion distance d must be >= 0, got {d}")
    survivors = []
    for j, q in enumerate(primes):
        pts = _progression_points(q, lo, hi)
        keep = np.ones(len(pts), dtype=bool)
        for jp, qp in enumerate(primes):
            if jp == j:
                continue
            r = pts % qp
            below = (r <= d) & (pts - r >= lo)
            up = qp - r
            above = (up <= d) & (pts + up < hi)
            keep &= ~(below | above)
        survivors.append(pts[keep])
    return survivors


def block_count(primes, d: int, lo: int, hi: int) -> int:
    """Number of survivors in [lo, hi)."""
    return sum(int(s.size) for s in survivors_by_progression(primes, d, lo, hi))
