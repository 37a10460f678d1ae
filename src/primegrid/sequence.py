"""The global sequence store and the checks made on its blocks.

The sequence is the union of the blocks [beta_{m-1}, beta_m).  Block m holds
the survivors of the ledger row's progressions (see blocksets); block 1 has
the single modulus 1, so it is every integer of [0, beta_1).  The store keeps
two things: the endpoints beta_0 = 0 < ... < beta_M and one strictly
increasing element array.  Block m is the slice of that array between the
positions of beta_{m-1} and beta_m, found by binary search in the elements
themselves, so every count read from the store reflects the array it holds.
Range counts are binary searches too.

The two kernels that touch every element avoid per-element Python work.
`banach_density` prunes window starts exactly: a bucket of starts [s, e) is
skipped when the smaller of L and the count of [s, e - 1 + L), which holds
every window starting in the bucket, is no more than an exact window count
already in hand, so no skipped window can be the maximum.  Block 1 holds
every integer of [0, beta_1), so for L <= beta_1 its first window reaches L
and every bucket is skipped at once.  `write_elements` formats a run of
elements with the same number of digits as one byte matrix, four digits at a
time through a table of the 10,000 four-byte texts 0000 to 9999.

`build_store` sizes the element array from `block_count` and has
`fill_block` write each block, already sorted, into its slice, so the
array is allocated once and never sorted or copied.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# survivors_by_progression is not called here; the benchmark's tracer wraps
# it under this module's name
from .blocksets import block_count, fill_block, survivors_by_progression
from .ledger import Ledger, LedgerError

F = Fraction


class LedgerIncomplete(LedgerError):
    pass


class OutOfBuiltRange(Exception):
    pass


class WindowTooLarge(Exception):
    pass


class SequenceStore:
    """Block endpoints and one sorted element array, with O(log) range counts."""

    def __init__(self, betas, elements):
        self.betas = tuple(int(b) for b in betas)
        if len(self.betas) < 2 or self.betas[0] != 0:
            raise ValueError("endpoints must start at beta_0 = 0 and close a block")
        if any(a >= b for a, b in zip(self.betas, self.betas[1:])):
            raise ValueError("block endpoints must strictly increase")
        elems = np.asarray(elements, dtype=np.int64)
        if not (elems[1:] > elems[:-1]).all():
            raise ValueError("global sequence must be strictly increasing")
        if elems.size and (elems[0] < 0 or elems[-1] >= self.horizon):
            raise ValueError(f"elements must lie in [0, {self.horizon})")
        self.elements = elems
        self.offsets = np.searchsorted(elems, self.betas)

    @property
    def horizon(self) -> int:
        """beta_M of the last built block."""
        return self.betas[-1]

    @property
    def n_blocks(self) -> int:
        return len(self.betas) - 1

    @property
    def total(self) -> int:
        return int(self.elements.size)

    def block(self, m: int) -> np.ndarray:
        """The elements of block m: a view into the global array."""
        if not 1 <= m <= self.n_blocks:
            raise OutOfBuiltRange(f"block {m} not built (have {self.n_blocks})")
        return self.elements[self.offsets[m - 1]:self.offsets[m]]

    def count_range(self, a: int, b: int) -> int:
        """Number of elements in [a, b)."""
        if a > b:
            raise ValueError("need a <= b")
        if b > self.horizon:
            raise OutOfBuiltRange(f"b={b} beyond built horizon {self.horizon}")
        lo, hi = np.searchsorted(self.elements, [a, b], side="left")
        return int(hi - lo)

    def block_of(self, n: int) -> int:
        """Index m of the block whose interval contains position n."""
        if not 0 <= n < self.horizon:
            raise OutOfBuiltRange(n)
        return bisect.bisect_right(self.betas, n)


def build_store(ledger: Ledger, through: int | None = None) -> SequenceStore:
    """Build blocks 1..through (default: every closed block of the ledger)."""
    if through is None:
        through = ledger.complete_horizon
    if not 1 <= through <= ledger.complete_horizon:
        raise LedgerIncomplete(
            f"ledger closes only {ledger.complete_horizon} blocks")
    rows = [ledger.block(m) for m in range(1, through + 1)]
    # each block's slice is sized by the closed form, not by the ledger's
    # count, so that verify's check of that count stays a comparison
    betas, ends = [0], [0]
    for m, blk in enumerate(rows, 1):
        if blk.beta_prev != betas[-1]:
            raise ValueError(f"block {m} starts at {blk.beta_prev}, "
                             f"not at beta_{m - 1} = {betas[-1]}")
        betas.append(blk.beta)
        ends.append(ends[-1] + block_count(blk.primes, blk.d, blk.beta_prev,
                                           blk.beta))
    elements = np.empty(ends[-1], dtype=np.int64)
    for blk, s, e in zip(rows, ends, ends[1:]):
        fill_block(blk.primes, blk.d, blk.beta_prev, blk.beta, elements[s:e])
    return SequenceStore(betas, elements)


@dataclass(frozen=True)
class BlockReport:
    m: int
    n_windows: int
    min_ratio: Fraction | None     # window count / (p_m Q(m))
    max_ratio: Fraction | None
    lower_ok: bool
    upper_ok: bool
    k1_edge: bool
    min_gap: int | None
    gap_ok: bool
    spacing_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.gap_ok and self.spacing_ok


# verify_block counts the aligned windows, and _argmin_gap takes the gaps,
# this many at a time, so that a period-1 block of 10^8 integers needs no
# array as long as its windows or its gaps
_WINDOW_CHUNK = 1 << 20


def _argmin_gap(elems: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
    """The first i in [lo, hi) with the least gap elems[i+1] - elems[i], and
    that gap (hi < elems.size, lo < hi)."""
    best = None
    for i in range(lo, hi, _WINDOW_CHUNK):
        gaps = np.diff(elems[i:min(i + _WINDOW_CHUNK, hi) + 1])
        j = int(np.argmin(gaps))
        # strictly less: a tie in a later chunk keeps the earlier place
        if best is None or gaps[j] < best[1]:
            best = (i + j, int(gaps[j]))
    return best


def _min_gap(elems: np.ndarray) -> int | None:
    n = elems.size
    return _argmin_gap(elems, 0, n - 1)[1] if n >= 2 else None


def verify_block(ledger: Ledger, store: SequenceStore, m: int) -> BlockReport:
    """Exact per-window density bounds, minimum gap, and leading-gap emptiness.

    Every aligned window [beta_{m-1} + i*p, +p) fully inside the block must
    hold strictly fewer elements than p*Q and strictly more than (1-gamma)*p*Q.
    With a single progression no deletion can happen, the ratio is exactly 1,
    and the strict upper bound is vacuous; that edge case is flagged instead
    of failed.
    """
    elems = store.block(m)
    params = ledger.block(m)
    lo, hi = store.betas[m - 1], store.betas[m]
    if (lo, hi) != (params.beta_prev, params.beta):
        raise ValueError(f"store block {m} is [{lo}, {hi}), ledger row "
                         f"[{params.beta_prev}, {params.beta})")
    p = params.p
    pQ = sum(p // q for q in params.primes)   # p*Q(m), an integer
    n_win = (hi - lo) // p
    extremes = []
    for i in range(0, n_win, _WINDOW_CHUNK):
        edges = lo + p * np.arange(i, min(i + _WINDOW_CHUNK, n_win) + 1,
                                   dtype=np.int64)
        counts = np.diff(np.searchsorted(elems, edges, side="left"))
        extremes += [int(counts.min()), int(counts.max())]
    ratios = [F(min(extremes), pQ), F(max(extremes), pQ)] if extremes else []
    k1_edge = params.K == 1
    lower_ok = all(r > 1 - params.gamma for r in ratios) if m >= 2 else True
    upper_ok = (all(r < 1 for r in ratios) or k1_edge) if m >= 2 else True
    min_gap = _min_gap(elems)
    gap_ok = True if min_gap is None or m == 1 else min_gap >= params.d
    # the block's first d positions are empty
    spacing_ok = m == 1 or elems.size == 0 or int(elems[0]) >= lo + params.d
    return BlockReport(
        m=m, n_windows=n_win,
        min_ratio=ratios[0] if ratios else None,
        max_ratio=ratios[1] if ratios else None,
        lower_ok=lower_ok, upper_ok=upper_ok, k1_edge=k1_edge,
        min_gap=min_gap, gap_ok=gap_ok, spacing_ok=spacing_ok,
    )


def gap_profile(store: SequenceStore) -> list[tuple[int, int, int]]:
    """Per block: (m, k index of the minimal gap, minimal gap n_{k+1}-n_k).

    The gap from a block's last element to the next block's first element is
    attributed to the earlier block.  k is 1-based over the global sequence.
    The gaps are taken `_WINDOW_CHUNK` at a time, never as one array of the
    whole sequence.
    """
    out = []
    n_gaps = store.elements.size - 1
    for m in range(1, store.n_blocks + 1):
        lo = int(store.offsets[m - 1])
        upper = min(int(store.offsets[m]), n_gaps)   # last block has no trailing gap
        if upper <= lo:
            continue
        k, gap = _argmin_gap(store.elements, lo, upper)
        out.append((m, k + 1, gap))
    return out


# banach_density halves its hot buckets only while the binary searches of
# the halving levels stay below 1/_LEVEL_BUDGET of the element starts left
_LEVEL_BUDGET = 8


def banach_density(store: SequenceStore, L: int) -> Fraction:
    """Exact max over windows [a, a+L) within [0, beta_M) of count/L.

    A best window starts at an element or is the last window [beta_M - L,
    beta_M), because sliding a window right to its first element loses
    nothing.  The valid starts [0, beta_M - L] are cut into buckets [s, e),
    first one bucket, then each hot bucket halved.  The window at each
    bucket start and the last window are counted exactly; their maximum
    `lb` is a lower bound.  Every window starting in [s, e) lies inside
    [s, e - 1 + L), and no window holds more than L integers, so the
    smaller of L and the count of [s, e - 1 + L) bounds the bucket from
    above.  A bucket is dropped when that bound is at most `lb`, or when it
    holds no element start: none of its windows can beat `lb`, so dropping
    it keeps the maximum exact.  Halving stops before the binary searches
    made by the levels exceed 1/_LEVEL_BUDGET of the element starts in the
    hot buckets; the windows at those starts are then counted one by one.
    So at most every element start is counted, and where nothing is dropped
    the levels add at most 1/_LEVEL_BUDGET more binary searches than
    counting every start.
    """
    if L < 1:
        raise ValueError("window length must be positive")
    if L > store.horizon:
        raise WindowTooLarge(f"L={L} exceeds horizon {store.horizon}")
    elems, horizon = store.elements, store.horizon
    last = horizon - L
    lb = store.count_range(last, horizon)
    # buckets [s, e) of window starts, e <= last + 1, halved while hot
    s = np.zeros(1, dtype=np.int64)
    e = np.full(1, last + 1, dtype=np.int64)
    searches = 0
    while True:
        # elements below s, e, s + L and e - 1 + L, all at most beta_M
        c = np.searchsorted(elems, np.stack((s, e, s + L, e - 1 + L)))
        searches += c.size
        lb = max(lb, int((c[2] - c[0]).max()))
        hot = (np.minimum(c[3] - c[0], L) > lb) & (c[1] > c[0])
        lo, hi = c[0, hot], c[1, hot]
        # the next level makes 4 searches in each half of each hot bucket
        if _LEVEL_BUDGET * (searches + 8 * lo.size) > int((hi - lo).sum()):
            break
        s, e = s[hot], e[hot]
        mid = (s + e) // 2
        # interleaved, so that the buckets stay sorted
        s, e = np.stack((s, mid), 1).ravel(), np.stack((mid, e), 1).ravel()
    if lo.size:
        # count the windows at the element starts of the hot buckets
        sizes = hi - lo
        idx = np.arange(int(sizes.sum()), dtype=np.int64) \
            + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
        counts = np.searchsorted(elems, elems[idx] + L, side="left") - idx
        lb = max(lb, int(counts.max(initial=0)))
    return F(lb, L)


_WRITE_CHUNK = 1 << 16


def _four_digit_table() -> np.ndarray:
    """The four ASCII bytes of 0000 .. 9999, one uint32 each, in memory order."""
    digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    table = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for k in range(4):
        # byte k is the digit that axis k (thousands first) indexes
        table[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    return table.view(np.uint32).ravel()


_DIGITS4 = _four_digit_table()


def write_elements(store: SequenceStore, path) -> None:
    """One decimal element per line, as bytes built four digits at a time.

    The elements are sorted, so those with w digits are one contiguous run.
    Each run is written _WRITE_CHUNK rows at a time as a (rows, w + 1) byte
    matrix: the run's groups of four digits, from the last back, looked up
    as uint32 words in a table of 0000 .. 9999, cut to their last w bytes,
    then a newline.
    """
    elems = store.elements
    # run w (1..19 digits, int64 has at most 19) is elems[edges[w-1]:edges[w]]
    edges = np.concatenate((
        [0], np.searchsorted(elems, 10 ** np.arange(1, 19, dtype=np.int64)),
        [elems.size]))
    with open(path, "wb") as fh:
        for width in range(1, 20):
            groups = -(-width // 4)
            for i in range(edges[width - 1], edges[width], _WRITE_CHUNK):
                # unsigned division is faster, and 32 bits hold 9 digits
                x = elems[i:min(i + _WRITE_CHUNK, edges[width])].astype(
                    np.uint32 if width <= 9 else np.uint64)
                words = np.empty((x.size, groups), dtype=np.uint32)
                for g in range(groups - 1, 0, -1):
                    q = x // 10000
                    words[:, g] = np.take(_DIGITS4, x - q * 10000)
                    x = q
                words[:, 0] = np.take(_DIGITS4, x)
                rows = np.empty((x.size, width + 1), dtype=np.uint8)
                rows[:, :width] = words.view(np.uint8)[:, 4 * groups - width:]
                rows[:, width] = ord("\n")
                fh.write(rows)


def block_summaries(store: SequenceStore) -> list[dict]:
    return [
        {
            "m": m,
            "beta_prev": store.betas[m - 1],
            "beta": store.betas[m],
            "size": int(store.block(m).size),
            "min_gap": _min_gap(store.block(m)),
        }
        for m in range(1, store.n_blocks + 1)
    ]
