"""Block construction and the global sequence store.

Block m is the union of the progressions of the ledger row, with points
deleted when a point of a different progression lies within d_m, all inside
[beta_{m-1}, beta_m).  Block 1 has the single modulus 1, so it is every
integer of [0, beta_1).  The store concatenates the blocks into the strictly
increasing global sequence and answers range-count queries through binary
search on the sorted element array.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .blocksets import survivors_by_progression
from .ledger import Ledger, LedgerError

F = Fraction


class LedgerIncomplete(LedgerError):
    pass


class OutOfBuiltRange(Exception):
    pass


class WindowTooLarge(Exception):
    pass


@dataclass(frozen=True)
class SequenceBlock:
    m: int
    beta_prev: int
    beta: int
    d: int
    primes: tuple[int, ...]
    elements: np.ndarray
    deleted_per_j: tuple[int, ...]

    @property
    def size(self) -> int:
        return int(self.elements.size)

    @property
    def min_gap(self) -> int | None:
        if self.elements.size < 2:
            return None
        return int(np.diff(self.elements).min())


def build_block(ledger: Ledger, m: int) -> SequenceBlock:
    """Survivor set of block m under the ledger's parameters."""
    blk = ledger.block(m)
    if blk.beta is None:
        raise LedgerIncomplete(f"block {m} has no right endpoint yet")
    per_j, deleted = survivors_by_progression(
        blk.primes, blk.d, blk.beta_prev, blk.beta)
    return SequenceBlock(m, blk.beta_prev, blk.beta, blk.d, blk.primes,
                         np.sort(np.concatenate(per_j)), tuple(deleted))


class SequenceStore:
    """Immutable concatenation of built blocks with O(log) range counting."""

    def __init__(self, blocks: list[SequenceBlock]):
        if not blocks or blocks[0].beta_prev != 0:
            raise ValueError("store must start at block 1 with beta_0 = 0")
        for a, b in zip(blocks, blocks[1:]):
            if b.beta_prev != a.beta:
                raise ValueError("blocks must be contiguous")
        self.blocks = list(blocks)
        self.elements = (np.concatenate([b.elements for b in blocks])
                         if blocks else np.empty(0, dtype=np.int64))
        if self.elements.size > 1 and not (np.diff(self.elements) > 0).all():
            raise ValueError("global sequence must be strictly increasing")
        sizes = np.array([b.size for b in blocks], dtype=np.int64)
        self.block_offsets = np.concatenate([[0], np.cumsum(sizes)])

    @property
    def horizon(self) -> int:
        """beta_M of the last built block."""
        return self.blocks[-1].beta

    @property
    def total(self) -> int:
        return int(self.elements.size)

    def nbar_block(self, m: int) -> int:
        """Count of elements below beta_m."""
        return int(self.block_offsets[m])

    def nk(self, k: int) -> int:
        """The k-th element, 1-indexed."""
        if not 1 <= k <= self.total:
            raise IndexError(k)
        return int(self.elements[k - 1])

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
        for b in self.blocks:
            if b.beta_prev <= n < b.beta:
                return b.m
        raise OutOfBuiltRange(n)


def build_store(ledger: Ledger, through: int | None = None) -> SequenceStore:
    """Build blocks 1..through (default: every closed block of the ledger)."""
    if through is None:
        through = ledger.complete_horizon
    if not 1 <= through <= ledger.complete_horizon:
        raise LedgerIncomplete(
            f"ledger closes only {ledger.complete_horizon} blocks")
    return SequenceStore([build_block(ledger, m) for m in range(1, through + 1)])


@dataclass(frozen=True)
class BlockReport:
    m: int
    profile: str
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


def verify_block(ledger: Ledger, store: SequenceStore, m: int) -> BlockReport:
    """Exact per-window density bounds, minimum gap, and leading-gap emptiness.

    Every aligned window [beta_{m-1} + i*p, +p) fully inside the block must
    hold strictly fewer elements than p*Q and strictly more than (1-gamma)*p*Q.
    With a single progression no deletion can happen, the ratio is exactly 1,
    and the strict upper bound is vacuous; that edge case is flagged instead
    of failed.
    """
    params = ledger.block(m)
    sb = store.blocks[m - 1]
    if sb.m != m:
        raise ValueError("store/ledger mismatch")
    p = params.p
    pQ = sum(p // q for q in params.primes)   # p*Q(m), an integer
    n_win = (sb.beta - sb.beta_prev) // p
    ratios = []
    if n_win > 0:
        edges = sb.beta_prev + p * np.arange(n_win + 1, dtype=np.int64)
        idx = np.searchsorted(sb.elements, edges, side="left")
        counts = np.diff(idx)
        cmin, cmax = int(counts.min()), int(counts.max())
        ratios = [F(cmin, pQ), F(cmax, pQ)]
    k1_edge = params.K == 1
    lower_ok = all(r > 1 - params.gamma for r in ratios) if m >= 2 else True
    upper_ok = (all(r < 1 for r in ratios) or k1_edge) if m >= 2 else True
    min_gap = sb.min_gap
    gap_ok = True if min_gap is None or m == 1 else min_gap >= params.d
    if m >= 2:
        a, b = sb.beta_prev, sb.beta_prev + params.d
        spacing_ok = not ((sb.elements >= a) & (sb.elements < b)).any()
    else:
        spacing_ok = True
    return BlockReport(
        m=m, profile=ledger.constants.profile, n_windows=n_win,
        min_ratio=ratios[0] if ratios else None,
        max_ratio=ratios[1] if ratios else None,
        lower_ok=lower_ok, upper_ok=upper_ok, k1_edge=k1_edge,
        min_gap=min_gap, gap_ok=gap_ok, spacing_ok=spacing_ok,
    )


def gap_profile(store: SequenceStore) -> list[tuple[int, int, int]]:
    """Per block: (m, k index of the minimal gap, minimal gap n_{k+1}-n_k).

    The gap from a block's last element to the next block's first element is
    attributed to the earlier block.  k is 1-based over the global sequence.
    """
    out = []
    elems = store.elements
    gaps = np.diff(elems)
    for i, b in enumerate(store.blocks):
        lo = store.block_offsets[i]
        hi = store.block_offsets[i + 1]
        if hi == lo:
            continue
        upper = min(hi, len(gaps))   # last block has no trailing gap
        if upper <= lo:
            continue
        seg = gaps[lo:upper]
        j = int(np.argmin(seg))
        out.append((b.m, int(lo + j + 1), int(seg[j])))
    return out


def banach_density(store: SequenceStore, L: int) -> Fraction:
    """Exact max over windows [a, a+L) within [0, beta_M) of count/L."""
    if L < 1:
        raise ValueError("window length must be positive")
    if L > store.horizon:
        raise WindowTooLarge(f"L={L} exceeds horizon {store.horizon}")
    elems = store.elements
    if elems.size == 0:
        return F(0)
    # the best window can be taken to start at an element
    starts = elems[elems <= store.horizon - L]
    if starts.size == 0:
        starts = np.array([store.horizon - L], dtype=np.int64)
    lo = np.searchsorted(elems, starts, side="left")
    hi = np.searchsorted(elems, starts + L, side="left")
    return F(int((hi - lo).max()), L)


def write_elements(store: SequenceStore, path) -> None:
    """One decimal element per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for n in store.elements:
            fh.write(f"{int(n)}\n")


def block_summaries(store: SequenceStore) -> list[dict]:
    return [
        {
            "m": b.m,
            "beta_prev": b.beta_prev,
            "beta": b.beta,
            "size": b.size,
            "min_gap": b.min_gap,
        }
        for b in store.blocks
    ]
