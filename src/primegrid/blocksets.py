"""Survivor sets of prime progressions inside one block.

A block [lo, hi) carries one arithmetic progression per modulus q (the
multiples of q that land in the block).  A point is deleted when some point
of a *different* progression, also inside the block, lies within distance d
of it.  Coincident points (a common multiple of two of the moduli) are at
distance 0 from each other and therefore die on both sides.

So for d >= 0 the survivor sets of the progressions are disjoint, and their
union is a merge of them: no point needs to be removed, and the size of the
union is the sum of the sizes.  The strictly increasing check of the
sequence store guards this at run time.

Away from its two ends a block is periodic.  A point n of the interior
[lo + d, hi - d) has all of [n - d, n + d] inside the block, so the in-block
condition holds for every neighbour and n survives or dies by its residues
modulo the moduli alone, that is by n mod P with P = lcm of the moduli
(their product on a ledger row, whose moduli are distinct primes; the
product is wrong for moduli such as 4 and 6).  So one period of survivors,
the rule's survivors in [0, P) of the range [-d, P + d), is tiled across
the interior.  The rule itself decides only the at most d points at each
end, where a neighbour counts only if it lies inside the block, and a block
whose interior is shorter than two periods, where a period would cost more
than it saves.  `block_count` counts the tiled interior in closed form:
whole periods times the period's survivor count, plus binary searches in
the period for the partial ones.

`fill_block` decides block contents: it writes a block's survivors in
increasing order into the block's slice of the sequence store's one element
array, in five pieces around the tiled interior [a, b): the left end, the
period holding a cut at a, the whole periods, the period holding b cut at
b, and the right end.  The period is the merge of the progressions'
residues, so each piece comes out sorted and the pieces follow one another.  `block_count`, which the ledger calls while choosing block
endpoints and the store calls to size each slice, counts what it writes, and
a fill that does not end exactly at that count raises.
`survivors_by_progression` is the per-modulus view of one filled block: a
survivor is a multiple of exactly one modulus.  A brute-force oracle in the
test suite re-derives both point by point.
"""

from __future__ import annotations

import math

import numpy as np


def _progression_points(q: int, lo: int, hi: int) -> np.ndarray:
    """Multiples of q in [lo, hi) as an int64 array."""
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    start = -(-lo // q) * q
    return np.arange(start, hi, q, dtype=np.int64)


def _rule(primes, d: int, lo: int, hi: int, a: int,
          b: int) -> list[np.ndarray]:
    """Survivors among the points of [a, b) in the block [lo, hi), indexed
    like `primes`: each point tested against every other progression."""
    survivors = []
    for j, q in enumerate(primes):
        pts = _progression_points(q, a, b)
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


def _layout(primes, d: int, lo: int,
            hi: int) -> tuple[list[int], int, int, int]:
    """Checked moduli, the period P and the tiled interior [a, b).

    [a, b) is empty (a = b = hi) when the interior is shorter than two
    periods, so that the rule decides the whole block.
    """
    primes = list(primes)
    if not primes:
        raise ValueError("a block needs at least one progression")
    if len(set(primes)) != len(primes):
        raise ValueError("progression moduli must be distinct")
    if d < 0:
        raise ValueError(f"deletion distance d must be >= 0, got {d}")
    P = math.lcm(*primes)
    a = min(lo + d, hi)
    b = max(a, hi - d)
    if b - a < 2 * P:
        a = b = hi
    return primes, P, a, b


def _period(primes, d: int, P: int) -> list[np.ndarray]:
    """Survivor residues in [0, P) of the interior, per progression."""
    return _rule(primes, d, -d, P + d, 0, P)


# fill_block writes the whole periods of a block this many at a time, so
# that a period-1 block of 10^8 integers needs no array of period starts as
# long as the block
_FILL_PERIODS = 1 << 16


def _merged(arrays: list[np.ndarray]) -> np.ndarray:
    """The per-progression arrays as one sorted array."""
    return np.sort(np.concatenate(arrays))


def _put(out: np.ndarray, pos: int, piece: np.ndarray) -> int:
    """Write `piece` into `out` at `pos`; return the position after it."""
    end = pos + piece.size
    if end > out.size:
        raise ValueError(f"block fill overruns its {out.size} places")
    out[pos:end] = piece
    return end


def fill_block(primes, d: int, lo: int, hi: int, out: np.ndarray) -> None:
    """Write the survivors of the block [lo, hi) into `out`, increasing.

    `out` must have exactly `block_count(primes, d, lo, hi)` places; a fill
    that ends anywhere else raises ValueError.
    """
    primes, P, a, b = _layout(primes, d, lo, hi)
    pos = _put(out, 0, _merged(_rule(primes, d, lo, hi, lo, a)))
    if a < b:
        res = _merged(_period(primes, d, P))
        # the periods holding a and b start at first and last, with the
        # n >= 1 whole periods between them
        first, last = a // P * P, b // P * P
        pos = _put(out, pos, first + res[np.searchsorted(res, a - first):])
        n = (last - first) // P - 1
        end = pos + n * res.size
        if end > out.size:
            raise ValueError(f"block fill overruns its {out.size} places")
        whole = out[pos:end].reshape(n, res.size)
        for i in range(0, n, _FILL_PERIODS):
            k = min(_FILL_PERIODS, n - i)
            starts = first + P * np.arange(i + 1, i + k + 1, dtype=np.int64)
            np.add.outer(starts, res, out=whole[i:i + k])
        pos = _put(out, end, last + res[:np.searchsorted(res, b - last)])
    pos = _put(out, pos, _merged(_rule(primes, d, lo, hi, b, hi)))
    if pos != out.size:
        raise ValueError(f"block [{lo}, {hi}) filled {pos} of its "
                         f"{out.size} places")


def survivors_by_progression(primes, d: int, lo: int,
                             hi: int) -> list[np.ndarray]:
    """Survivor arrays of the block [lo, hi), indexed like `primes`."""
    primes = list(primes)
    blk = np.empty(block_count(primes, d, lo, hi), dtype=np.int64)
    fill_block(primes, d, lo, hi, blk)
    return [blk[blk % q == 0] for q in primes]


def block_count(primes, d: int, lo: int, hi: int) -> int:
    """Number of survivors in [lo, hi), the interior counted in closed form."""
    primes, P, a, b = _layout(primes, d, lo, hi)
    count = sum(s.size for s in _rule(primes, d, lo, hi, lo, a)
                + _rule(primes, d, lo, hi, b, hi))
    if a == b:
        return count
    for res in _period(primes, d, P):
        # whole periods from the one holding a to the one holding b, in
        # Python ints, then the parts of those two below a and below b
        count += ((b // P - a // P) * res.size
                  + int(np.searchsorted(res, b % P))
                  - int(np.searchsorted(res, a % P)))
    return count
