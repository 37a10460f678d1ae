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
than it saves.

`Block` lays a block out once.  It evaluates the rule at the two ends and
over one period, each merged over the progressions, and counts the tiled
interior in closed form: whole periods times the period's survivor count,
plus binary searches in the period for the partial ones.  `Block.fill`
writes the survivors in increasing order into the block's slice of the
sequence store's one element array, in five pieces around the tiled
interior [a, b): the left end, the period holding a cut at a, the whole
periods, the period holding b cut at b, and the right end.  Each piece
comes out sorted and the pieces follow one another; a fill that does not
end exactly at the count raises.  `block_count` is a Block's count.
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


# Block.fill writes the whole periods of a block this many at a time, so
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


class Block:
    """The survivors of the block [lo, hi), laid out once.

    [a, b) is the tiled interior, empty (a = b = hi) when it is shorter than
    two periods.  `left`, `right` and `period` are the rule's survivors at
    the two ends and in one period, merged over the progressions; `period`
    is set only when a < b.  `count` is the block's size.
    """

    def __init__(self, primes, d: int, lo: int, hi: int):
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
        self.primes, self.lo, self.hi, self.P, self.a, self.b = \
            primes, lo, hi, P, a, b
        self.left = _merged(_rule(primes, d, lo, hi, lo, a))
        self.right = _merged(_rule(primes, d, lo, hi, b, hi))
        self.count = self.left.size + self.right.size
        if a < b:
            # survivor residues in [0, P) of the interior
            self.period = _merged(_rule(primes, d, -d, P + d, 0, P))
            # whole periods from the one holding a to the one holding b, in
            # Python ints, then the parts of those two below a and below b
            self.count += ((b // P - a // P) * self.period.size
                           + int(np.searchsorted(self.period, b % P))
                           - int(np.searchsorted(self.period, a % P)))

    def fill(self, out: np.ndarray) -> None:
        """Write the block's survivors into `out`, increasing.

        `out` must have exactly `count` places; a fill that ends anywhere
        else raises ValueError.  Every value is below hi, which must fit
        `out`'s integer dtype; the whole periods are computed in that dtype.
        """
        P, a, b = self.P, self.a, self.b
        if self.hi - 1 > np.iinfo(out.dtype).max:
            raise ValueError(f"block [{self.lo}, {self.hi}) does not fit "
                             f"{out.dtype}")
        pos = _put(out, 0, self.left)
        if a < b:
            res = self.period
            # the periods holding a and b start at first and last, with the
            # n >= 1 whole periods between them
            first, last = a // P * P, b // P * P
            pos = _put(out, pos, first + res[np.searchsorted(res, a - first):])
            n = (last - first) // P - 1
            end = pos + n * res.size
            if end > out.size:
                raise ValueError(f"block fill overruns its {out.size} places")
            whole = out[pos:end].reshape(n, res.size)
            # the whole periods in out's dtype: their starts, and so P and
            # first, lie below last <= hi
            period = res.astype(out.dtype)
            for i in range(0, n, _FILL_PERIODS):
                k = min(_FILL_PERIODS, n - i)
                starts = np.arange(i + 1, i + k + 1, dtype=out.dtype)
                starts *= P
                starts += first
                np.add.outer(starts, period, out=whole[i:i + k])
            pos = _put(out, end, last + res[:np.searchsorted(res, b - last)])
        pos = _put(out, pos, self.right)
        if pos != out.size:
            raise ValueError(f"block [{self.lo}, {self.hi}) filled {pos} of "
                             f"its {out.size} places")


def survivors_by_progression(primes, d: int, lo: int,
                             hi: int) -> list[np.ndarray]:
    """Survivor arrays of the block [lo, hi), indexed like `primes`."""
    block = Block(primes, d, lo, hi)
    out = np.empty(block.count, dtype=np.int64)
    block.fill(out)
    return [out[out % q == 0] for q in block.primes]


def block_count(primes, d: int, lo: int, hi: int) -> int:
    """Number of survivors in [lo, hi), the interior counted in closed form."""
    return Block(primes, d, lo, hi).count
