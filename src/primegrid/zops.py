"""Finitely supported functions on Z and the prime-grid averaging operators.

The grid of period p = q_1 * ... * q_K splits Z into intervals [(t-1)p, tp).
For a signal phi and a start n, the window I(n, N) is the union of the grid
intervals touched by [n, n+N], shifted to offsets from n; it always consists
of whole grid intervals, so it holds exactly nu_j = |I|/q_j multiples of q_j.

Two operators act on a signal along each progression:

* the progression mean: the average of phi over the q_j-multiples in the
  window (combined across j with weights nu_j);
* the progression deviation: the average over grid intervals of the absolute
  inner sum of phi minus its grid-interval mean, which measures how far phi
  sits from being constant on grid intervals as seen along the progression.

Both have lattice representations: smearing phi along a progression inside
each grid interval produces a function whose plain averages along n + p*Z
reproduce the operator exactly.  The representations are implemented
separately from the definitional sums and the equalities are exercised by the
test suite in exact rational arithmetic.

Arithmetic: operators are generic over Fraction (exact) and float inputs; the
randomized inequality batteries run in binary64, the worked examples and
representation identities in Fractions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .primes import is_prime

F = Fraction


class LengthMismatch(Exception):
    pass


class NonpositiveLambda(Exception):
    pass


def _div(total, den: int):
    """Exact division for rational accumulators, float division otherwise."""
    if isinstance(total, (float, complex)):
        return total / den
    return F(total, den)


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class GridContext:
    """Distinct primes q_1..q_K and the derived period data."""

    primes: tuple[int, ...]

    def __post_init__(self):
        qs = self.primes
        if len(set(qs)) != len(qs) or not qs:
            raise ValueError("primes must be distinct and nonempty")
        for q in qs:
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")

    @property
    def K(self) -> int:
        return len(self.primes)

    @property
    def p(self) -> int:
        return math.prod(self.primes)

    @property
    def qtil(self) -> tuple[int, ...]:
        p = self.p
        return tuple(p // q for q in self.primes)

    @property
    def pQ(self) -> int:
        """p * Q = sum of the cofactors, an integer."""
        return sum(self.qtil)

    @property
    def ratio_ok(self) -> bool:
        """Whether all prime pairs are within a factor of 2 of each other."""
        return 2 * min(self.primes) > max(self.primes)

    # window bookkeeping -----------------------------------------------------
    def t(self, n: int) -> int:
        return n // self.p + 1

    def t1(self, n: int, N: int) -> int:
        """Index of the grid interval holding the window end n + N (N >= 1)."""
        if N < 1:
            raise ValueError("N must be >= 1")
        return (n + N) // self.p + 1

    def nprime(self, n: int, N: int) -> int:
        return self.t1(n, N) - self.t(n) + 1

    def window(self, n: int, N: int) -> tuple[int, int]:
        """Offset window I(n, N) as a half-open pair (lo, hi)."""
        return (self.t(n) - 1) * self.p - n, self.t1(n, N) * self.p - n

    def nu(self, n: int, N: int) -> int:
        lo, hi = self.window(n, N)
        return hi - lo

    def nu_j(self, n: int, N: int, j: int) -> int:
        return self.nu(n, N) // self.primes[j]

    def nprime_min(self, n: int) -> int:
        """Smallest window block count reachable with N >= 1 at this n."""
        return 2 if n % self.p == self.p - 1 else 1


class _ReadOnlyValues(list):
    """The value list of a signal built with its norms: in-place changes
    raise, so the norms it was built with stay its norms."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("the values of a signal built with its norms are read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


class FiniteSignal:
    """Function on Z supported on [lo, lo+len(values))."""

    _known = None        # (values, {norm name: value}) given by with_norms

    def __init__(self, lo: int, values):
        self.lo = int(lo)
        self.values = list(values)
        if not self.values:
            raise ValueError("signal needs at least one sample")

    @classmethod
    def with_norms(cls, lo: int, values, l1, bound_M, l2sq) -> "FiniteSignal":
        """A signal whose norms the caller already holds, e.g. a battery
        draw that computed them as arrays.  Its values are read-only, and
        binding new ones to `values` drops the given norms."""
        sig = cls(lo, values)
        sig.values = _ReadOnlyValues(sig.values)
        sig._known = (sig.values, {"l1": l1, "bound_M": bound_M, "l2sq": l2sq})
        return sig

    def _given(self, name: str):
        """The norm with_norms gave, while `values` is still the list it
        gave it for; None otherwise."""
        known = self._known
        return known[1][name] if known is not None and known[0] is self.values else None

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __call__(self, n: int):
        if self.lo <= n <= self.hi:
            return self.values[n - self.lo]
        return 0

    @property
    def bound_M(self):
        given = self._given("bound_M")
        return max(abs(v) for v in self.values) if given is None else given

    @property
    def l1(self):
        given = self._given("l1")
        return sum(abs(v) for v in self.values) if given is None else given

    @property
    def l2sq(self):
        given = self._given("l2sq")
        return sum(abs(v) ** 2 for v in self.values) if given is None else given

    def __repr__(self):
        return f"FiniteSignal(lo={self.lo}, values={self.values!r})"


@dataclass(frozen=True)
class Spectrum:
    p: int
    coeffs: np.ndarray     # coeffs[b] at frequency b/p


# ---------------------------------------------------------------------------
# discrete Fourier transform on one grid interval

def dft(block: np.ndarray | list, p: int | None = None) -> Spectrum:
    """Forward transform with the 1/p normalization on the analysis side."""
    block = np.asarray(block, dtype=complex)
    if p is None:
        p = block.size
    if block.size != p:
        raise LengthMismatch(f"need exactly {p} samples, got {block.size}")
    return Spectrum(p, np.fft.fft(block) / p)


def idft(spec: Spectrum) -> np.ndarray:
    if spec.coeffs.size != spec.p:
        raise LengthMismatch("spectrum length must equal its period")
    return np.fft.ifft(spec.coeffs) * spec.p


def parseval_residual(block, spec: Spectrum) -> float:
    """Relative defect of (1/p) sum |phi|^2 = sum |phi_hat|^2."""
    block = np.asarray(block, dtype=complex)
    lhs = float(np.sum(np.abs(block) ** 2)) / spec.p
    rhs = float(np.sum(np.abs(spec.coeffs) ** 2))
    scale = max(lhs, rhs, 1e-300)
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# grid decompositions

def periodized_block(sig: FiniteSignal, ctx: GridContext, t: int) -> list:
    """Values of phi on grid interval t; its p-periodic extension's period."""
    base = (t - 1) * ctx.p
    return [sig(base + i) for i in range(ctx.p)]


def block_average(sig: FiniteSignal, ctx: GridContext, n: int):
    """Mean of phi over the grid interval containing n."""
    return _div(sum(periodized_block(sig, ctx, ctx.t(n))), ctx.p)


def smeared_at(sig: FiniteSignal, ctx: GridContext, j: int, x: int):
    """Progression-j smear of the periodized block of x, evaluated at x.

    Averages the block-of-x periodization over x, x+q_j, ..., wrapping inside
    that block; the result is q_j-periodic in x.
    """
    p, q = ctx.p, ctx.primes[j]
    t = ctx.t(x)
    total = 0
    for k in range(ctx.qtil[j]):
        y = x + k * q
        total = total + sig(y - (ctx.t(y) - t) * p)
    return _div(total, ctx.qtil[j])


def smear_minus(sig: FiniteSignal, ctx: GridContext, j: int, x: int):
    """Own-block smear minus the grid-interval mean at x."""
    return smeared_at(sig, ctx, j, x) - block_average(sig, ctx, x)


# ---------------------------------------------------------------------------
# the averaging operators (definitional sums)

def _multiples(q: int, lo: int, hi: int):
    start = -(-lo // q) * q
    return range(start, hi, q)


def progression_mean_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int, j: int):
    """Average of phi(n + l q_j) over the q_j-multiples of the window."""
    lo, hi = ctx.window(n, N)
    q = ctx.primes[j]
    total = 0
    for off in _multiples(q, lo, hi):
        total = total + sig(n + off)
    return _div(total, (hi - lo) // q)


def progression_mean(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """nu-weighted combination of the per-progression means."""
    lo, hi = ctx.window(n, N)
    total = 0
    for q in ctx.primes:
        for off in _multiples(q, lo, hi):
            total = total + sig(n + off)
    return _div(total, ctx.nprime(n, N) * ctx.pQ)


def progression_deviation_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int, j: int):
    """Blockwise |sum of (phi - block mean)| along progression j, averaged."""
    p, q = ctx.p, ctx.primes[j]
    t0, t1 = ctx.t(n), ctx.t1(n, N)
    total = 0
    for t in range(t0, t1 + 1):
        blo, bhi = (t - 1) * p - n, t * p - n
        avg = block_average(sig, ctx, (t - 1) * p)
        inner = 0
        for off in _multiples(q, blo, bhi):
            inner = inner + sig(n + off) - avg
        total = total + abs(inner)
    return _div(total, (t1 - t0 + 1) * ctx.qtil[j])


def progression_deviation(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """nu-weighted combination of the per-progression deviations."""
    num = 0
    for j in range(ctx.K):
        num = num + ctx.qtil[j] * progression_deviation_j(sig, ctx, n, N, j)
    return _div(num, ctx.pQ)


# lattice representations ----------------------------------------------------

def lattice_mean_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int, j: int):
    """Plain lattice average of the own-block smear; equals the j-mean."""
    Np = ctx.nprime(n, N)
    total = 0
    for k in range(Np):
        total = total + smeared_at(sig, ctx, j, n + k * ctx.p)
    return _div(total, Np)


def lattice_deviation_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int, j: int):
    """Plain lattice average of |smear minus block mean|; equals the j-deviation."""
    Np = ctx.nprime(n, N)
    total = 0
    for k in range(Np):
        total = total + abs(smear_minus(sig, ctx, j, n + k * ctx.p))
    return _div(total, Np)


def lattice_deviation(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """Combined deviation through the lattice kernel (representation route)."""
    Np = ctx.nprime(n, N)
    total = 0
    for k in range(Np):
        x = n + k * ctx.p
        acc = 0
        for j in range(ctx.K):
            acc = acc + ctx.qtil[j] * abs(smear_minus(sig, ctx, j, x))
        total = total + _div(acc, ctx.pQ)
    return total / Np


def lattice_mean(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """Combined mean through the lattice kernel (representation route)."""
    Np = ctx.nprime(n, N)
    total = 0
    for k in range(Np):
        x = n + k * ctx.p
        acc = 0
        for j in range(ctx.K):
            acc = acc + ctx.qtil[j] * smeared_at(sig, ctx, j, x)
        total = total + _div(acc, ctx.pQ)
    return total / Np


def mean_over_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """Unweighted average over j of the per-progression means."""
    total = 0
    for j in range(ctx.K):
        total = total + progression_mean_j(sig, ctx, n, N, j)
    return total / ctx.K


def _n_for_nprime(ctx: GridContext, n: int, Np: int) -> int:
    """Some N >= 1 realizing the given window block count at n."""
    if Np == ctx.nprime_min(n) == 1:
        return 1
    return (Np - 1) * ctx.p - n % ctx.p


def window_sup(sig: FiniteSignal, ctx: GridContext, n: int, value):
    """sup over N >= 1 of value(N), the N -> infinity limit 0 included.

    value(N) is an operator at (n, N): it depends on N only through the
    window block count, so one N per reachable count nprime_min(n), ... is
    evaluated.  Once the window covers the support the numerator is frozen,
    so larger counts only dilute toward the limit 0 and the sweep stops at
    the covering count.
    """
    lo = ctx.nprime_min(n)
    cover = ctx.t(sig.hi) - ctx.t(n) + 1
    return max([0] + [value(_n_for_nprime(ctx, n, Np))
                      for Np in range(lo, max(cover, lo) + 1)])


def mean_over_j_sup(sig: FiniteSignal, ctx: GridContext, n: int):
    """sup over N >= 1 of the unweighted j-average of progression means.

    The values are signed, so the supremum includes the N -> infinity limit 0.
    """
    return window_sup(sig, ctx, n, lambda N: mean_over_j(sig, ctx, n, N))


def lattice_mean_over_j_sup(sig: FiniteSignal, ctx: GridContext, n: int):
    """Representation route for the same supremum: lattice averages of the
    j-averaged own-block smear."""
    return window_sup(sig, ctx, n, lambda N: sum(
        lattice_mean_j(sig, ctx, n, N, j) for j in range(ctx.K)) / ctx.K)


def progression_mean_sup(sig: FiniteSignal, ctx: GridContext, n: int):
    """sup over N >= 1 of |combined progression mean|."""
    return window_sup(sig, ctx, n,
                      lambda N: abs(progression_mean(sig, ctx, n, N)))


def progression_deviation_sup(sig: FiniteSignal, ctx: GridContext, n: int,
                              j: int | None = None):
    """sup over N >= 1 of the (per-j or combined) progression deviation."""
    return window_sup(sig, ctx, n, lambda N: (
        progression_deviation(sig, ctx, n, N) if j is None
        else progression_deviation_j(sig, ctx, n, N, j)))


def lattice_sup_j(sig: FiniteSignal, ctx: GridContext, n: int, j: int):
    """Representation route for the per-j deviation supremum: lattice
    averages of |own-block smear minus block mean|."""
    return window_sup(sig, ctx, n,
                      lambda N: lattice_deviation_j(sig, ctx, n, N, j))


# ---------------------------------------------------------------------------
# fast float profiles over batches of signals (shared by the inequality
# batteries)
#
# Each float kernel takes a batch of signals and evaluates the rows of all of
# them at once: a row is one (signal, n) pair of a profile, or one (signal,
# residue) pair of the lattice tables.  Signals of unequal length are stacked
# zero-padded on the right, which freezes every prefix sum and cumulative
# table past a signal's end, so no row reads a value that differs from its
# own signal's.  Every float maximum over window lengths goes through one
# sweep, `_sweep`, the float counterpart of the exact `window_sup`: it takes
# the prefix-difference averages (table[c + N] - table[c]) / N of each row
# for exactly its own N = 1..width, in one pass per N over the rows at least
# N wide.  Sums keep the order of the row-at-a-time evaluation, so a signal's
# results are bit-for-bit the same in every batch, the batch of one included.

# a batch runs in groups of signals with at most _BLOCK_ENTRIES // 8 rows
# together, and sup_sq_tail spreads its hyperbolas in runs of at most as many
# terms, which bounds the per-row and per-term arrays; at 2^16 the tracemalloc
# peak of run_all(20250809, 250) is 2.4 MB, at 2^17 4.1 MB for no less time
_BLOCK_ENTRIES = 1 << 16


def _padded(sigs, width: int, offsets) -> np.ndarray:
    """One zero row of `width` per signal, holding its float values from
    column `offsets[s]` on."""
    lens = np.array([len(s.values) for s in sigs])
    out = np.zeros((len(sigs), width))
    first = np.arange(len(sigs)) * width + offsets - (np.cumsum(lens) - lens)
    values = []
    for s in sigs:
        values += s.values
    # numpy converts each value as float() does
    out.flat[np.repeat(first, lens) + np.arange(lens.sum())] = values
    return out


def _prefix_sums(sigs) -> np.ndarray:
    """Row s: 0, then the running sums of signal s, frozen past its end."""
    vals = _padded(sigs, max(len(s.values) for s in sigs), 0)
    P = np.zeros((len(sigs), vals.shape[1] + 1))
    P[:, 1:] = np.cumsum(vals, axis=1)
    return P


def _ranges(n_lo, n_hi):
    """Rows (owner s, n) for n in [n_lo[s], n_hi[s]], signal by signal."""
    lengths = n_hi - n_lo + 1
    owner = np.repeat(np.arange(lengths.size), lengths)
    n = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths - n_lo,
                                          lengths)
    return owner, n


def _grouped(fn, rows, sigs, *args) -> list:
    """fn(sigs[g], *(a[g] for a in args)) over consecutive slices g of the
    signals holding at most _BLOCK_ENTRIES // 8 rows together (a signal with
    more alone), joined; rows[s] is signal s's row count."""
    out = []
    start = total = 0
    for i, n in enumerate(rows):
        if total and total + n > _BLOCK_ENTRIES // 8:
            out += fn(sigs[start:i], *(a[start:i] for a in args))
            start, total = i, 0
        total += n
    return out + fn(sigs[start:], *(a[start:] for a in args))


def _sweep(flat: np.ndarray, row0: np.ndarray, start: np.ndarray,
           widths: np.ndarray, end: int, absolute: bool = True,
           skip_first: np.ndarray | None = None) -> np.ndarray:
    """Per row i, the maximum over exactly N = 1..widths[i] (widths >= 1) of
    the window average (table[c + N] - table[c]) / N along the table row at
    flat[row0[i]:], where c = start[i] and table indices are clipped to
    [0, end].

    The average is taken in absolute value unless `absolute` is false; N = 1
    is left out of the rows where `skip_first` is true.  The rows are sorted
    by width once, so the rows at least N wide are one suffix, and each N is
    one gather and one divide over that suffix.
    """
    order = np.argsort(widths, kind="stable")
    lo = row0[order]
    hi = lo + end
    pos = lo + start[order]                     # unclipped flat index of c
    base = flat.take(np.minimum(np.maximum(pos, lo), hi))
    best = np.full(order.size, -np.inf)
    firsts = np.searchsorted(widths[order],
                             np.arange(1, widths.max(initial=0) + 1))
    for N, a in enumerate(firsts.tolist(), start=1):
        idx = pos[a:] + N
        np.maximum(idx, lo[a:], out=idx)
        np.minimum(idx, hi[a:], out=idx)
        vals = flat.take(idx)
        vals -= base[a:]
        vals /= N
        if absolute:
            np.abs(vals, out=vals)
        if N == 1 and skip_first is not None:
            vals[skip_first[order]] = -np.inf
        np.maximum(best[a:], vals, out=best[a:])
    out = np.empty(order.size)
    out[order] = best
    return out


def _run_bounds(x: np.ndarray) -> np.ndarray:
    """0, each later place where a run of equal consecutive entries of x
    begins, and x.size (just 0 for an empty x)."""
    return np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1], [x.size > 0])))


def _run_sums(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.sum of each consecutive run of lengths[i] entries of `flat`.

    The runs are copied once into length order, so the runs of one length
    lie side by side and go through one 2-D np.sum, which adds each run in
    the same (pairwise) order as np.sum on the run alone.
    """
    order = np.argsort(lengths, kind="stable")
    by_len = lengths[order]
    to = np.cumsum(by_len) - by_len            # each sorted run's first place
    starts = np.cumsum(lengths) - lengths
    runs = flat[np.repeat(starts[order] - to, by_len) + np.arange(by_len.sum())]
    sums = np.zeros(lengths.size)
    edges = _run_bounds(by_len).tolist()
    for a, b in zip(edges, edges[1:]):
        L = int(by_len[a])
        if L:
            np.sum(runs[to[a]:to[a] + (b - a) * L].reshape(b - a, L), axis=1,
                   out=sums[a:b])
    out = np.empty(lengths.size)
    out[order] = sums
    return out


def _count_above(values: np.ndarray, lengths: np.ndarray, levels) -> list:
    """Per run of lengths[i] consecutive values, how many exceed levels[i]."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    above = values > np.array([float(v) for v in levels])[owner]
    return np.bincount(owner[above], minlength=lengths.size).tolist()


def _lattice_tables(sigs, ctx: GridContext, kind: str):
    """Per-residue cumulative sums of the lattice kernel over each support.

    Returns (blk_lo, T, CH): for signal s, the first point blk_lo[s] of the
    grid intervals its support meets, their number T[s], and CH[s, r, c] the
    sum of the first c kernel values at blk_lo[s] + r + j*p, j = 0..T[s]-1
    (frozen for c > T[s]).  The kernel at a point is the cofactor-weighted
    combination over progressions of the own-block smear ("plus") or of
    |smear minus block mean| ("minus"); lattice averages of it reproduce the
    combined operators exactly.
    """
    p = ctx.p
    lo = np.array([s.lo for s in sigs])
    blk_lo = lo // p * p
    T = np.array([s.hi for s in sigs]) // p + 1 - lo // p
    grid = _padded(sigs, int(T.max()) * p, lo - blk_lo).reshape(len(sigs), -1, p)
    avg = grid.mean(axis=2)
    kernel = np.zeros(grid.shape)
    cols = np.arange(p)
    for j, q in enumerate(ctx.primes):
        qtil = ctx.qtil[j]
        # per residue mod q
        class_sum = grid.reshape(*grid.shape[:2], qtil, q).sum(axis=2)
        smear = class_sum[:, :, cols % q] / qtil
        if kind == "plus":
            kernel += qtil * smear
        else:
            kernel += qtil * np.abs(smear - avg[:, :, None])
    kernel /= ctx.pQ
    CH = np.zeros((len(sigs), p, grid.shape[1] + 1))
    CH[:, :, 1:] = np.cumsum(kernel.transpose(0, 2, 1), axis=2)
    return blk_lo, T, CH


def sup_profile(tables, ctx: GridContext, n_lo, n_hi) -> np.ndarray:
    """Float suprema at n in [n_lo[s], n_hi[s]] for each signal s of `tables`,
    joined signal by signal (n_lo and n_hi may be ints for a batch of one).

    `tables` is `_lattice_tables(sigs, ctx, kind)`: the suprema of the
    combined progression mean for kind "plus", of the combined deviation for
    "minus".  For each n the supremum over window block counts N' reduces to
    a maximum over the cumulative kernel table row r = n mod p from lattice
    offset j0 = (n - blk_lo - r)/p: values with the window beyond the support
    keep a frozen numerator and only dilute, so columns past the support
    never raise the maximum and the finite range of N' is exact.  N' = 1 is
    unreachable at r = p - 1 and is masked there.
    """
    p = ctx.p
    blk_lo, T, CH = tables
    end = CH.shape[2] - 1
    owner, n = _ranges(np.atleast_1d(n_lo), np.atleast_1d(n_hi))
    r = n % p
    j0 = (n - blk_lo[owner]) // p
    row0 = (owner * p + r) * (end + 1)      # each row's table row in CH.flat
    return _sweep(CH.ravel(), row0, j0, np.maximum(T[owner] - j0, 2), end,
                  skip_first=r == p - 1)


def _hyperbola_sq_sums(s: np.ndarray, c: np.ndarray, at: np.ndarray,
                       lengths: np.ndarray, k_start: int) -> np.ndarray:
    """Per row i, np.sum over k in [k_start, k_start + lengths[i]) of
    (max over the hyperbolas j of row i of s[j] / (k + c[j]))^2.

    Hyperbola j belongs to row at[j] (nondecreasing), and each row with
    terms has one.  Every hyperbola is spread over its row's terms in one
    flat array, the maximum taken in place, and the rows summed by
    _run_sums.
    """
    starts = np.cumsum(lengths) - lengths
    n = lengths[at]                            # terms of hyperbola j
    owner = np.repeat(np.arange(at.size), n)
    off = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)   # k - k_start
    grid = np.full(starts[-1] + lengths[-1], -np.inf)
    np.maximum.at(grid, starts[at][owner] + off,
                  s[owner] / (off + (k_start + c)[owner]).astype(float))
    return _run_sums(grid ** 2, lengths)


# finite terms summed per row of sup_sq_tail before its bound takes over
_TAIL_CAP = 200_000

# cephes zeta(x, q): the Euler-Maclaurin divisors (2k)!/B_2k, and the
# relative size of a term at which the sums stop
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10,
           -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17,
           -7.1661652561756670113e18)
_MACHEP = 1.11022302462515654042e-16


@functools.lru_cache(maxsize=1 << 12)
def _zeta2(q: float) -> float:
    """Hurwitz zeta(2, q) = sum over k >= 0 of 1/(q+k)^2, for q > 0.

    A line-by-line port of cephes zeta(x, q) at x = 2, so bit-for-bit the
    value of scipy.special.polygamma(1, q): the DLMF 25.11.43 form beyond
    q = 1e8, else nine direct terms past q^-2 (cephes also runs on while
    q + i <= 9, which no q > 0 needs) followed by Euler-Maclaurin with up to
    12 Bernoulli terms.  Powers go through libm pow (math.pow), as in
    cephes; numpy's power rounds some of them differently.

    Memoised: sup_sq_tail asks for integers k_star + c, which repeat across
    its calls (run_all(20250809, 250) makes 412 calls on 149 values).
    The cache is bounded, as a search over many signals could ask for more.
    """
    x = 2.0
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * math.pow(q, 1 - x)
    s = math.pow(q, -x)
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = math.pow(a, -x)
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for A in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / A
        s = s + t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def sup_sq_tail(S, k_start: int) -> np.ndarray:
    """Per row S_1..S_C of the 2-D array S, the exact sum over k >= k_start
    of max(0, max_c S_c/(k+c))^2.

    Per row, the maximum of finitely many hyperbolas stabilizes to the
    largest-S one beyond the last pairwise crossing; from there the series
    is S_max^2 times the Hurwitz zeta value zeta(2, k_star + c), taken from
    the memoised port _zeta2.  If crossings exceed _TAIL_CAP terms, the
    remainder is over-bounded by the largest-S hyperbola at the smallest kept
    offset, which keeps the result a valid upper bound.
    """
    S = np.asarray(S, dtype=float)
    out = np.zeros(S.shape[0])
    if k_start < 0 or S.shape[1] == 0:
        return out
    # one row per c, so each step over c runs along all rows of S at once
    St = np.ascontiguousarray(S.T)
    best = np.maximum.accumulate(np.maximum(St, 0.0), axis=0)
    # keep (c, S_c) when S_c beats 0 and every smaller-c value of its row;
    # a row with no positive value keeps nothing and its sum is 0
    kept = np.empty(St.shape, dtype=bool)
    np.greater(St[0], 0.0, out=kept[0])
    np.greater(St[1:], best[:-1], out=kept[1:])
    rows, cols = np.nonzero(kept.T)            # row by row, c ascending
    if not rows.size:
        return out
    bounds = _run_bounds(rows)
    first, last = bounds[:-1], bounds[1:] - 1  # last: first c at the row max
    kr = rows[first]
    kept_n = np.diff(bounds)
    at = np.repeat(np.arange(kr.size), kept_n)  # each kept value's row in kr
    sk = St[cols, rows]
    # beyond a crossing of consecutive kept pairs the larger-S one dominates;
    # clipping keeps the int conversion in range and the cap test unchanged
    pair = np.flatnonzero(rows[1:] == rows[:-1])
    c1, c2 = cols[pair], cols[pair + 1]
    s1, s2 = sk[pair], sk[pair + 1]
    cross = (s1 * (c2 + 1) - s2 * (c1 + 1)) / (s2 - s1)
    cross = np.clip(cross, k_start - 1, k_start + _TAIL_CAP + 1)
    k_star = np.full(kr.size, k_start, dtype=np.int64)
    np.maximum.at(k_star, at[pair], np.floor(cross).astype(np.int64) + 1)
    capped = k_star - k_start > _TAIL_CAP
    k_star[capped] = k_start + _TAIL_CAP
    # the finite part k < k_star, in runs of rows holding at most
    # _BLOCK_ENTRIES // 8 (hyperbola, k) terms together (a row with more
    # alone), which bounds the half-dozen flat arrays each run spreads
    lengths = k_star - k_start
    terms = lengths * kept_n
    quota = max(1, _BLOCK_ENTRIES // 8)
    edges = _run_bounds((np.cumsum(terms) - terms) // quota).tolist()
    finite = np.zeros(kr.size)
    for a, b in zip(edges, edges[1:]):
        j = slice(bounds[a], bounds[b])
        finite[a:b] = _hyperbola_sq_sums(sk[j], cols[j] + 1, at[j] - a,
                                         lengths[a:b], k_start)
    # the tail from k_star: the last kept hyperbola, or past the cap the row
    # maximum at the first kept offset.  np.float_power squares through libm
    # pow, the rounding the sums were defined with; np.square and np.power
    # round some products the other way
    c_tail = np.where(capped, cols[first], cols[last]) + 1
    coef = np.float_power(sk[last], 2.0)
    args, inverse = np.unique(k_star + c_tail, return_inverse=True)
    zeta = np.fromiter(map(_zeta2, args.astype(float).tolist()), float, args.size)
    out[kr] = finite + coef * zeta[inverse]
    return out


# ---------------------------------------------------------------------------
# the four inequality checks
#
# Each check runs on a batch of signals and returns one result per signal;
# the name without `_batch` is the batch of one.

def _check_levels(lams) -> None:
    for lam in lams:
        if lam <= 0:
            raise NonpositiveLambda(lam)


def level_count_progression_sup_batch(sigs, ctx: GridContext,
                                      lams) -> list[dict]:
    """#{n : sup_N |progression mean| > lam} and its weak (1,1) bound, per
    signal and its level.

    The scan window is lossless: left of it the supremum is at most
    l1 * max(q) / distance < lam, right of it the operator vanishes.
    """
    _check_levels(lams)
    l1 = [sig.l1 for sig in sigs]
    windows = [(sig.lo - math.ceil(a * max(ctx.primes) / lam) - ctx.p,
                sig.hi + ctx.p) for sig, a, lam in zip(sigs, l1, lams)]
    rows = [hi - lo + 1 for lo, hi in windows]

    def profile(group, group_windows):
        n_lo, n_hi = np.array(group_windows).T
        return sup_profile(_lattice_tables(group, ctx, "plus"), ctx,
                           n_lo, n_hi).tolist()

    counts = _count_above(np.array(_grouped(profile, rows, sigs, windows)),
                          np.array(rows), lams)
    out = []
    for a, lam, count, window in zip(l1, lams, counts, windows):
        bound = 4 * (float(a) / float(lam))
        out.append({"count": count, "bound": bound, "ok": count <= bound,
                    "window": window})
    return out


def level_count_progression_sup(sig: FiniteSignal, ctx: GridContext, lam) -> dict:
    return level_count_progression_sup_batch([sig], ctx, [lam])[0]


def deviation_sup_l2_bound_batch(sigs, ctx: GridContext) -> list[dict]:
    """Sum over n of (deviation supremum)^2 against (32/K) * M * l1, per
    signal.

    The near zone is summed directly; the two-sided far field is exact via
    the hyperbola-tail closed form, so no truncation tolerance enters.
    """
    p = ctx.p

    def lhs(group):
        tables = _lattice_tables(group, ctx, "minus")
        blk_lo, T, CH = tables
        sups = sup_profile(tables, ctx, blk_lo, blk_lo + T * p - 1)
        # the near sum, then row r's tail (n = blk_lo + r - k*p, k >= 1)
        # residue by residue: cumsum adds along a row in order
        terms = np.empty((len(group), p + 1))
        terms[:, 0] = _run_sums(sups ** 2, T * p)
        terms[:, 1:] = sup_sq_tail(CH[:, :, 1:].reshape(-1, CH.shape[2] - 1),
                                   1).reshape(-1, p)
        return np.cumsum(terms, axis=1)[:, -1].tolist()

    rows = [(ctx.t(sig.hi) - ctx.t(sig.lo) + 1) * p for sig in sigs]
    out = []
    for sig, total in zip(sigs, _grouped(lhs, rows, sigs)):
        M = float(sig.bound_M)
        rhs = 32.0 / ctx.K * M * float(sig.l1)
        out.append({"lhs": total, "rhs": rhs, "ok": total <= rhs})
    return out


def deviation_sup_l2_bound(sig: FiniteSignal, ctx: GridContext) -> dict:
    return deviation_sup_l2_bound_batch([sig], ctx)[0]


def _window_sups(sigs, W) -> list:
    """sup_N |avg of phi over [n, n+N)| for n in [lo - W[s], hi], signal by
    signal."""
    lens = np.array([len(sig.values) for sig in sigs])
    P = _prefix_sums(sigs)
    end = P.shape[1] - 1
    owner, off = _ranges(-np.array(W), lens - 1)      # off = n - lo
    return _sweep(P.ravel(), owner * (end + 1), off, lens[owner] - off,
                  end).tolist()


def level_count_window_sup_batch(sigs, lams) -> list[dict]:
    """#{n : sup_N |avg of phi over [n, n+N)| > lam} vs 2*l1/lam, per signal
    and its level."""
    _check_levels(lams)
    l1 = [sig.l1 for sig in sigs]
    W = [math.ceil(a / lam) + 1 for a, lam in zip(l1, lams)]
    rows = [len(sig.values) + w for sig, w in zip(sigs, W)]
    counts = _count_above(np.array(_grouped(_window_sups, rows, sigs, W)),
                          np.array(rows), lams)
    out = []
    for a, lam, count in zip(l1, lams, counts):
        bound = 2 * (float(a) / float(lam))
        out.append({"count": count, "bound": bound, "ok": count <= bound})
    return out


def level_count_window_sup(sig: FiniteSignal, lam) -> dict:
    return level_count_window_sup_batch([sig], [lam])[0]


def _strong_lhs_sq(sigs) -> list[float]:
    """Squared l2 norm of n -> max(0, sup_N (1/N) sum_{k=1..N} phi(n+k)),
    per signal.

    Rows whose supremum is negative count as 0.
    """
    lens = np.array([len(sig.values) for sig in sigs])
    P = _prefix_sums(sigs)
    end = P.shape[1] - 1
    # off = n + 1 - lo: the window [n+1, n+N] meets the support iff n < hi
    owner, off = _ranges(np.zeros_like(lens), lens - 1)
    sups = _sweep(P.ravel(), owner * (end + 1), off, lens[owner] - off, end,
                  absolute=False)
    # row s: the squares in n order, zeros past the signal's end, then the
    # far-left tail (n = lo - 1 - k, k >= 1; value max(0, max_c P_c/(k + c)));
    # cumsum adds them in that order.  np.float_power squares through libm
    # pow, the rounding the sum was defined with
    terms = np.zeros((len(sigs), end + 1))
    terms[owner, off] = np.float_power(np.maximum(sups, 0.0), 2.0)
    terms[:, -1] = sup_sq_tail(P[:, 1:], k_start=1)
    return np.cumsum(terms, axis=1)[:, -1].tolist()


def strong_l2_window_sup_batch(sigs) -> list[dict]:
    """l2 norm of n -> sup_N (1/N) sum_{k=1..N} phi(n+k) against 2*||phi||_2,
    per signal.

    Real signals only (the inner sum carries no absolute value).  The far
    left field is summed exactly through the hyperbola-tail closed form.
    """
    # the types of all values, gathered without a Python step per value
    if any(issubclass(t, complex)
           for t in set().union(*(map(type, sig.values) for sig in sigs))):
        raise TypeError("one-sided strong bound is implemented for real signals")
    rows = [len(sig.values) for sig in sigs]
    out = []
    for sig, lhs_sq in zip(sigs, _grouped(_strong_lhs_sq, rows, sigs)):
        rhs = 2.0 * float(sig.l2sq) ** 0.5
        lhs = lhs_sq ** 0.5
        out.append({"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs})
    return out


def strong_l2_window_sup(sig: FiniteSignal) -> dict:
    return strong_l2_window_sup_batch([sig])[0]
