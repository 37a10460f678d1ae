"""The global sequence store and the checks made on its blocks.

The sequence is the union of the blocks [beta_{m-1}, beta_m).  Block m holds
the survivors of the ledger row's progressions (see blocksets); block 1 has
the single modulus 1, so it is every integer of [0, beta_1).  The store keeps
two things: the endpoints beta_0 = 0 < ... < beta_M and one strictly
increasing element array.  Block m is the slice of that array between the
positions of beta_{m-1} and beta_m, found by binary search in the elements
themselves, so every count read from the store reflects the array it holds.
Range counts are binary searches too.

The checks measure the built blocks against their ledger rows:
`verify_block` the aligned windows, the least gap and the empty leading
gap, `count_bounds_check` the count estimates 4aa, 4ab, 6aa, 6ab and 4bb
at a grid of horizons in each block.

The kernels that touch every element avoid per-element Python work.
`banach_density` prunes window starts exactly: a bucket of starts [s, e) is
skipped when the smaller of L and the count of [s, e - 1 + L), which holds
every window starting in the bucket, is no more than an exact window count
already in hand, so no skipped window can be the maximum.  Block 1 holds
every integer of [0, beta_1), so for L <= beta_1 its first window reaches L
and every bucket is skipped at once.  `write_elements` formats a run of
elements with the same number of digits four digits at a time, through a
table of the 10,000 four-byte texts 0000 to 9999, each group stored straight
into one byte buffer at its place in the text.  The gaps of each block are
taken once per store (`SequenceStore.least_gaps`), a chunk at a time, and
every gap check reads them.

`build_store` lays out each block once, as a `blocksets.Block`, sizes the
element array from their counts and has each fill its slice, already
sorted, so the array is allocated once and never sorted or copied.

The elements are int32 when 2 * beta_M < 2^31 and int64 otherwise
(`element_dtype`, the one place this is decided).  The factor 2 covers
`banach_density`'s window ends, elements + L with L <= beta_M, which
NumPy computes in the elements' dtype.  Nothing narrows by wrapping: the
store checks order and range on its input before it narrows it, and
`Block.fill` writes values below its block's end, which is at most beta_M.
Every binary search into the elements goes through `_find`, which casts
its keys to the elements' dtype, clipped to that dtype's range (no element
lies at either end of it, so no position moves).  Keys of another dtype,
or a Python list, would make NumPy convert the whole element array first.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# survivors_by_progression is not called here; the benchmark's tracer wraps
# it under this module's name
from .blocksets import Block, survivors_by_progression
from .ledger import Ledger, LedgerError

F = Fraction


class LedgerIncomplete(LedgerError):
    pass


class OutOfBuiltRange(Exception):
    pass


class WindowTooLarge(Exception):
    pass


def element_dtype(horizon: int) -> np.dtype:
    """The dtype of a store's elements below `horizon` = beta_M: int32 when
    every element + L with L <= beta_M stays below 2^31, else int64."""
    return np.dtype(np.int32 if 2 * horizon < 2**31 else np.int64)


def _find(elems: np.ndarray, keys) -> np.ndarray:
    """np.searchsorted(elems, keys), the keys cast to elems' dtype."""
    keys = np.asarray(keys)
    if keys.dtype != elems.dtype:
        info = np.iinfo(elems.dtype)
        keys = np.clip(keys, info.min, info.max).astype(elems.dtype)
    return np.searchsorted(elems, keys)


class SequenceStore:
    """Block endpoints and one sorted element array, with O(log) range counts."""

    def __init__(self, betas, elements):
        self.betas = tuple(int(b) for b in betas)
        if len(self.betas) < 2 or self.betas[0] != 0:
            raise ValueError("endpoints must start at beta_0 = 0 and close a block")
        if any(a >= b for a, b in zip(self.betas, self.betas[1:])):
            raise ValueError("block endpoints must strictly increase")
        dtype = element_dtype(self.horizon)
        elems = np.asarray(elements)
        if elems.dtype != dtype:
            elems = np.asarray(elems, dtype=np.int64)
        # order and range are checked before the elements are narrowed
        for i in range(0, elems.size - 1, _WINDOW_CHUNK):
            run = elems[i:i + _WINDOW_CHUNK + 1]
            if not (run[1:] > run[:-1]).all():
                raise ValueError("global sequence must be strictly increasing")
        if elems.size and (elems[0] < 0 or int(elems[-1]) >= self.horizon):
            raise ValueError(f"elements must lie in [0, {self.horizon})")
        self.elements = elems.astype(dtype, copy=False)
        self.offsets = _find(self.elements, self.betas)

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
        # no element is negative, so a below 0 counts as 0
        lo, hi = _find(self.elements, np.array(
            [max(a, 0), b], dtype=self.elements.dtype)).tolist()
        return hi - lo

    def block_of(self, n: int) -> int:
        """Index m of the block whose interval contains position n."""
        if not 0 <= n < self.horizon:
            raise OutOfBuiltRange(n)
        return bisect.bisect_right(self.betas, n)

    @functools.cached_property
    def least_gaps(self) -> tuple[tuple[int, int] | None, ...]:
        """Per block: the first i with the least gap elements[i+1] -
        elements[i] between two of the block's own elements, and that gap;
        None for a block of fewer than two elements.

        The gaps of every block are taken once per store, `_WINDOW_CHUNK`
        at a time, and read by `verify_block`, `gap_profile` and
        `block_summaries`.
        """
        bounds = self.offsets.tolist()
        return tuple(_argmin_gap(self.elements, lo, hi - 1) if hi - lo >= 2
                     else None for lo, hi in zip(bounds, bounds[1:]))


def build_store(ledger: Ledger, through: int | None = None) -> SequenceStore:
    """Build blocks 1..through (default: every closed block of the ledger)."""
    if through is None:
        through = ledger.complete_horizon
    if not 1 <= through <= ledger.complete_horizon:
        raise LedgerIncomplete(
            f"ledger closes only {ledger.complete_horizon} blocks")
    # each block's slice is sized by the closed form, not by the ledger's
    # count, so that verify's check of that count stays a comparison
    betas, ends, blocks = [0], [0], []
    for m in range(1, through + 1):
        row = ledger.block(m)
        if row.beta_prev != betas[-1]:
            raise ValueError(f"block {m} starts at {row.beta_prev}, "
                             f"not at beta_{m - 1} = {betas[-1]}")
        betas.append(row.beta)
        blocks.append(Block(row.primes, row.d, row.beta_prev, row.beta))
        ends.append(ends[-1] + blocks[-1].count)
    elements = np.empty(ends[-1], dtype=element_dtype(betas[-1]))
    for blk, s, e in zip(blocks, ends, ends[1:]):
        blk.fill(elements[s:e])
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


# verify_block counts the aligned windows, _argmin_gap takes the gaps and
# SequenceStore checks the order this many at a time, so that a period-1
# block of 10^8 integers needs no array as long as its windows or its gaps.
# A chunk's int64 temporaries are 512 KB; at 2^20 the gaps of the demo h10
# store's largest block took 8 MB, set the peak of build-seq and verify, and
# were slower to take
_WINDOW_CHUNK = 1 << 16


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
    pQ = p * params.Q   # an integer: each q divides p
    n_win = (hi - lo) // p
    extremes = []
    for i in range(0, n_win, _WINDOW_CHUNK):
        # in the elements' dtype: every edge is at most hi
        edges = lo + p * np.arange(i, min(i + _WINDOW_CHUNK, n_win) + 1,
                                   dtype=elems.dtype)
        counts = np.diff(_find(elems, edges))
        extremes += [int(counts.min()), int(counts.max())]
    ratios = [F(min(extremes), pQ), F(max(extremes), pQ)] if extremes else []
    k1_edge = params.K == 1
    lower_ok = all(r > 1 - params.gamma for r in ratios) if m >= 2 else True
    upper_ok = (all(r < 1 for r in ratios) or k1_edge) if m >= 2 else True
    least = store.least_gaps[m - 1]
    min_gap = None if least is None else least[1]
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


def count_bounds_check(ledger: Ledger, store: SequenceStore) -> list[dict]:
    """The count estimates every block must satisfy, in exact rationals.

    For each block: the ledger's count equals the block's size, the
    full-block two-sided bounds, a grid of horizons N inside the block (its
    sixths, its first point and its first point past d) with the windowed
    two-sided bounds, and the global lower bound count(0, N) > (3/5) Q(m) N.
    Each block forms its rational coefficients (1 - gamma) Q, p Q, Q and
    (3/5) Q once, reads its size and the count below beta_{m-1} from the
    store's offsets, and takes the counts below all its horizons N from one
    binary search of the elements.
    """
    tab = ledger.constants
    bounds = store.offsets.tolist()
    out = []
    for m in range(1, store.n_blocks + 1):
        beta_prev, beta = store.betas[m - 1], store.betas[m]
        params = ledger.block(m)
        gamma, Q, p = params.gamma, params.Q, params.p
        kept_Q, pQ, global_Q = (1 - gamma) * Q, p * Q, F(3, 5) * Q
        blk_count = bounds[m] - bounds[m - 1]
        length = beta - beta_prev
        P_full = length // p
        rec = {
            "m": m,
            "f4aa": blk_count > kept_Q * (1 - tab.gamma_beta) * beta,
            # outer form needs p_m below the previous endpoint; block 1 only
            # supports the (P_m + 1) p Q form
            "f4ab": blk_count < (P_full + 1) * pQ if m == 1
            else blk_count < beta * Q,
            "grid": [],
        }
        Ns = {beta_prev + 1, beta_prev + params.d + 1, beta}
        for i in range(1, 7):
            Ns.add(beta_prev + max(1, (length * i) // 6))
        Ns = sorted(N for N in Ns if beta_prev < N <= beta)
        # no element is negative: the count below N is count(0, N)
        below = _find(store.elements, np.array(
            Ns, dtype=store.elements.dtype)).tolist()
        for N, n_below in zip(Ns, below):
            cnt = n_below - bounds[m - 1]
            P_N = (N - beta_prev) // p
            g = {
                "N": N,
                "f6aa_inner": cnt >= P_N * p * kept_Q,
                "f6aa": cnt > (N - beta_prev - p) * kept_Q,
                "f6ab_inner": cnt < (P_N + 1) * pQ,
                "f6ab": cnt < (N - beta_prev + p) * Q,
                "f4bb": n_below > global_Q * N,
            }
            g["ok"] = all(v for k, v in g.items() if k != "N")
            rec["grid"].append(g)
        rec["ok"] = (params.count == blk_count and rec["f4aa"] and rec["f4ab"]
                     and all(g["ok"] for g in rec["grid"]))
        out.append(rec)
    return out


def gap_profile(store: SequenceStore) -> list[tuple[int, int, int]]:
    """Per block: (m, k index of the minimal gap, minimal gap n_{k+1}-n_k).

    The gap from a block's last element to the next block's first element is
    attributed to the earlier block; a tie keeps the earlier place.  k is
    1-based over the global sequence.  The gaps inside each block come from
    `SequenceStore.least_gaps`; only the trailing gaps are taken here.
    """
    out = []
    elems = store.elements
    bounds = store.offsets.tolist()
    for m, least in enumerate(store.least_gaps, 1):
        lo, hi = bounds[m - 1], bounds[m]
        # the last element has no trailing gap
        if lo < hi < elems.size:
            trailing = int(elems[hi] - elems[hi - 1])
            if least is None or trailing < least[1]:
                least = (hi - 1, trailing)
        if least is not None:
            out.append((m, least[0] + 1, least[1]))
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
    s = np.zeros(1, dtype=elems.dtype)
    e = np.full(1, last + 1, dtype=elems.dtype)
    searches = 0
    while True:
        # elements below s, e, s + L and e - 1 + L, all at most beta_M
        c = _find(elems, np.stack((s, e, s + L, e - 1 + L)))
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
        # below 2 * beta_M, so in the elements' dtype
        counts = _find(elems, elems[idx] + L) - idx
        lb = max(lb, int(counts.max(initial=0)))
    return F(lb, L)


# write_elements formats this many rows at a time: at 2^14 a chunk of
# nine-digit rows needs about 0.7 MB, and 2^14 to 2^16 rows wrote the demo
# h10 sequence equally fast
_WRITE_CHUNK = 1 << 14


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
    Each run is written _WRITE_CHUNK rows at a time from one byte buffer,
    allocated once per call for the largest chunk, in which row r is bytes
    [3 + r(w + 1), 3 + (r + 1)(w + 1)).  A row's groups of four digits, from
    the last back, are looked up as uint32 words in a table of 0000 .. 9999;
    each group then goes to its final byte offset in one strided store, and
    the newline column in one more.  The leading group's word starts with
    up to 3 pad bytes (leading '0's) in front of its digits.  It is stored
    first, so that the pad, which falls on the previous row's newline and
    last group (or on the 3 spare bytes before row 0), is overwritten by the
    stores after it.  A 1- or 2-digit row has no later group, so its pad
    would fall on the row before, which the same store writes; those at
    most 100 rows are cut from the table's bytes.
    """
    elems = store.elements
    # run w (1..19 digits, int64 has at most 19) is elems[edges[w-1]:edges[w]]
    edges = np.concatenate((
        [0], _find(elems, 10 ** np.arange(1, 19, dtype=np.int64)),
        [elems.size])).tolist()
    runs = [(w, edges[w - 1], edges[w]) for w in range(1, 20)
            if edges[w] > edges[w - 1]]
    buf = np.empty(3 + max([min(e - s, _WRITE_CHUNK) * (w + 1)
                            for w, s, e in runs], default=0), dtype=np.uint8)
    with open(path, "wb") as fh:
        for width, start, stop in runs:
            stride = width + 1
            groups = -(-width // 4)
            lead = width - 4 * (groups - 1)     # digits of the leading group
            for i in range(start, stop, _WRITE_CHUNK):
                # unsigned division is faster: an int32 element is read as
                # its uint32 view, an int64 one as uint64
                x = elems[i:min(i + _WRITE_CHUNK, stop)]
                x = x.view(np.uint32) if x.dtype == np.int32 else x.astype(
                    np.uint64)
                text = buf[3:3 + x.size * stride]
                if width <= 2:
                    text.reshape(x.size, stride)[:, :width] = \
                        _DIGITS4.view(np.uint8).reshape(-1, 4)[x, 4 - width:]
                else:
                    words = []
                    for _ in range(groups - 1):
                        q = x // 10000
                        words.append(np.take(_DIGITS4, x - q * 10000))
                        x = q
                    words.append(np.take(_DIGITS4, x))
                    for g, word in enumerate(reversed(words)):
                        # group g ends lead + 4g bytes into its row
                        np.ndarray(x.size, np.uint32, buf, lead - 1 + 4 * g,
                                   (stride,))[:] = word
                text[width::stride] = ord("\n")
                fh.write(text)


def block_summaries(store: SequenceStore) -> list[dict]:
    return [
        {
            "m": m,
            "beta_prev": store.betas[m - 1],
            "beta": store.betas[m],
            "size": int(store.block(m).size),
            "min_gap": None if least is None else least[1],
        }
        for m, least in enumerate(store.least_gaps, 1)
    ]
