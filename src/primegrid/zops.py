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


@dataclass(frozen=True, init=False)
class FiniteSignal:
    """Function on Z supported on [lo, lo+len(values)): an immutable value,
    whose norms are computed once, when first read."""

    lo: int
    values: tuple

    def __init__(self, lo: int, values):
        values = tuple(values)
        if not values:
            raise ValueError("signal needs at least one sample")
        # the only write of the fields: setting them later raises
        self.__dict__.update(lo=int(lo), values=values)

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __call__(self, n: int):
        if self.lo <= n <= self.hi:
            return self.values[n - self.lo]
        return 0

    @functools.cached_property
    def bound_M(self):
        return max(abs(v) for v in self.values)

    @functools.cached_property
    def l1(self):
        return sum(abs(v) for v in self.values)

    @functools.cached_property
    def l2sq(self):
        return sum(abs(v) ** 2 for v in self.values)


class Signals:
    """A batch of float signals as columns: signal s starts at lo[s] and
    holds values[bounds[s]:bounds[s + 1]] (lengths[s] >= 1 of them), with
    norms l1[s], bound_M[s] and l2sq[s]."""

    __slots__ = ("lo", "lengths", "values", "l1", "bound_M", "l2sq", "bounds")

    def __init__(self, lo, lengths, values, l1, bound_M, l2sq):
        self.lo, self.lengths, self.values = lo, lengths, values
        self.l1, self.bound_M, self.l2sq = l1, bound_M, l2sq
        self.bounds = np.concatenate(([0], np.cumsum(lengths)))

    @classmethod
    def of(cls, sigs) -> "Signals":
        """The batch of the FiniteSignals `sigs`, their values and norms in
        binary64 (numpy converts each as float() does, and rejects complex)."""
        return cls(np.array([s.lo for s in sigs]),
                   np.array([len(s.values) for s in sigs]),
                   np.array([v for s in sigs for v in s.values], dtype=float),
                   *(np.array([float(getattr(s, k)) for s in sigs])
                     for k in ("l1", "bound_M", "l2sq")))

    def __len__(self) -> int:
        return self.lo.size

    def __getitem__(self, part: slice) -> "Signals":
        a, b, _ = part.indices(len(self))           # a slice a:b
        return Signals(self.lo[part], self.lengths[part],
                       self.values[self.bounds[a]:self.bounds[b]],
                       self.l1[part], self.bound_M[part], self.l2sq[part])

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.lengths - 1

    def signal(self, s: int) -> FiniteSignal:
        return FiniteSignal(int(self.lo[s]),
                            self.values[self.bounds[s]:self.bounds[s + 1]].tolist())


@dataclass(frozen=True)
class Spectrum:
    coeffs: np.ndarray     # coeffs[b] at frequency b/p

    @property
    def p(self) -> int:
        return self.coeffs.size


# ---------------------------------------------------------------------------
# discrete Fourier transform on one grid interval

def dft(block: np.ndarray | list) -> Spectrum:
    """Forward transform with the 1/p normalization on the analysis side,
    where p is the number of samples."""
    block = np.asarray(block, dtype=complex)
    return Spectrum(np.fft.fft(block) / block.size)


def idft(spec: Spectrum) -> np.ndarray:
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


def _combined(ctx: GridContext, value_j):
    """The nu-weighted combination sum_j qtil_j value_j(j) / pQ of per-j values."""
    num = 0
    for j in range(ctx.K):
        num = num + ctx.qtil[j] * value_j(j)
    return _div(num, ctx.pQ)


def progression_deviation(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """nu-weighted combination of the per-progression deviations."""
    return _combined(ctx, lambda j: progression_deviation_j(sig, ctx, n, N, j))


# lattice representations ----------------------------------------------------

def _lattice_average(ctx: GridContext, n: int, N: int, value):
    """Plain average of value(x) over the window's lattice points x = n + kp."""
    Np = ctx.nprime(n, N)
    total = 0
    for k in range(Np):
        total = total + value(n + k * ctx.p)
    return _div(total, Np)


def lattice_mean_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int, j: int):
    """Plain lattice average of the own-block smear; equals the j-mean."""
    return _lattice_average(ctx, n, N, lambda x: smeared_at(sig, ctx, j, x))


def lattice_deviation_j(sig: FiniteSignal, ctx: GridContext, n: int, N: int, j: int):
    """Plain lattice average of |own-block smear minus grid-interval mean|;
    equals the j-deviation."""
    return _lattice_average(ctx, n, N, lambda x: abs(
        smeared_at(sig, ctx, j, x) - block_average(sig, ctx, x)))


def lattice_deviation(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """Combined deviation through the lattice kernel (representation route)."""
    return _combined(ctx, lambda j: lattice_deviation_j(sig, ctx, n, N, j))


def lattice_mean(sig: FiniteSignal, ctx: GridContext, n: int, N: int):
    """Combined mean through the lattice kernel (representation route)."""
    return _combined(ctx, lambda j: lattice_mean_j(sig, ctx, n, N, j))


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
# Each float kernel takes a `Signals` batch and evaluates the rows of all its
# signals at once: a row is one (signal, n) pair of a profile, or one (signal,
# residue) pair of the lattice tables.  Signals of unequal length are stacked
# zero-padded on the right, which freezes every prefix sum and cumulative
# table past a signal's end, so no row reads a value that differs from its
# own signal's.  Every float maximum over window lengths goes through one
# sweep, `_sweep`, the float counterpart of the exact `window_sup`: it takes
# the prefix-difference averages (table[c + N] - table[c]) / N of each row
# for exactly its own N = 1..width, in one pass per N over the rows at least
# N wide.  Sums keep the order of the row-at-a-time evaluation, so a signal's
# results are bit-for-bit the same in every batch, the batch of one included.

# groups of signals hold at most _BLOCK_ENTRIES // 8 rows, and runs of
# sup_sq_tail's finite terms fewer than twice as many; the tracemalloc peak
# of run_all(20250809, 250) is 1.3 MB at 2^16, 2.3 MB at 2^17 for no less time
_BLOCK_ENTRIES = 1 << 16


def _padded(sigs: Signals, width: int, offsets) -> np.ndarray:
    """One zero row of `width` per signal, holding its values from column
    `offsets[s]` on."""
    out = np.zeros((len(sigs), width))
    first = np.arange(len(sigs)) * width + offsets - sigs.bounds[:-1]
    out.flat[np.repeat(first, sigs.lengths) + np.arange(sigs.values.size)] = \
        sigs.values
    return out


def _prefix_sums(sigs: Signals) -> np.ndarray:
    """Row s: 0, then the running sums of signal s, frozen past its end."""
    vals = _padded(sigs, int(sigs.lengths.max()), 0)
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


def _grouped(fn, rows, sigs: Signals, *args) -> np.ndarray:
    """fn(sigs[g], *(a[g] for a in args)) over consecutive slices g of the
    signals holding at most _BLOCK_ENTRIES // 8 rows together (a signal with
    more alone), joined; rows[s] is signal s's row count."""
    out = []
    start = total = 0
    for i, n in enumerate(rows.tolist()):
        if total and total + n > _BLOCK_ENTRIES // 8:
            out.append(fn(sigs[start:i], *(a[start:i] for a in args)))
            start, total = i, 0
        total += n
    out.append(fn(sigs[start:], *(a[start:] for a in args)))
    return np.concatenate(out)


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

    The runs are copied once into length order (unless they are in it
    already), so the runs of one length lie side by side and go through one
    2-D np.add.reduce, which adds each run in the same (pairwise) order as
    np.sum on the run alone.
    """
    order = np.argsort(lengths, kind="stable")
    by_len = lengths[order]
    to = np.cumsum(by_len) - by_len            # each sorted run's first place
    if (by_len != lengths).any():
        starts = np.cumsum(lengths) - lengths
        flat = flat[np.repeat(starts[order] - to, by_len)
                    + np.arange(by_len.sum())]
    sums = np.zeros(lengths.size)
    edges = _run_bounds(by_len).tolist()
    for a, b in zip(edges, edges[1:]):
        L = int(by_len[a])
        if L:
            np.add.reduce(flat[to[a]:to[a] + (b - a) * L].reshape(b - a, L),
                          axis=1, out=sums[a:b])
    out = np.empty(lengths.size)
    out[order] = sums
    return out


def _count_above(values: np.ndarray, lengths: np.ndarray,
                 levels: np.ndarray) -> np.ndarray:
    """Per run of lengths[i] consecutive values, how many exceed levels[i]."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    return np.bincount(owner[values > levels[owner]], minlength=lengths.size)


def _lattice_tables(sigs: Signals, ctx: GridContext, kind: str):
    """Per-residue cumulative sums of the lattice kernel over each support.

    Returns (blk_lo, T, CH): for signal s, the first point blk_lo[s] of the
    grid intervals its support meets, their number T[s], and CH[s, r, c] the
    sum of the first c kernel values at blk_lo[s] + r + j*p, j = 0..T[s]-1
    (frozen for c > T[s]).  The kernel at a point is the cofactor-weighted
    combination over progressions of the own-block smear ("plus") or of
    |smear minus block mean| ("minus"); lattice averages of it reproduce the
    combined operators exactly.
    """
    p, lo = ctx.p, sigs.lo
    blk_lo = lo // p * p
    T = sigs.hi // p + 1 - lo // p
    grid = _padded(sigs, int(T.max()) * p, lo - blk_lo).reshape(len(sigs), -1, p)
    avg = grid.mean(axis=2)
    kernel = np.zeros(grid.shape)
    for j, q in enumerate(ctx.primes):
        qtil = ctx.qtil[j]
        # per residue mod q, added to the q~ points of each class through a
        # (.., q~, q) view of the kernel
        smear = grid.reshape(*grid.shape[:2], qtil, q).sum(axis=2) / qtil
        if kind == "minus":
            smear = np.abs(smear - avg[:, :, None])
        view = kernel.reshape(smear.shape[:2] + (qtil, q))
        view += (qtil * smear)[:, :, None]
    kernel /= ctx.pQ
    # the running sums down each residue's column, then one row per residue
    CH = np.zeros((len(sigs), grid.shape[1] + 1, p))
    np.cumsum(kernel, axis=1, out=CH[:, 1:])
    return blk_lo, T, np.ascontiguousarray(CH.transpose(0, 2, 1))


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

    Memoised (bounded): sup_sq_tail asks for integers k_star + c, which
    repeat across calls (run_all(20250809, 250): 466 calls on 149 values).
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

    Only kept hyperbolas S_c/(k+c), S_c above 0 and all smaller-c values of
    its row, reach the maximum.  Beyond the last crossing k_star of
    consecutive kept ones the largest-S one dominates, and the rest is
    S_max^2 zeta(2, k_star + c).  Past _TAIL_CAP finite terms the remainder
    is over-bounded by the largest-S hyperbola at the smallest kept offset,
    which keeps the result a valid upper bound.
    """
    S = np.asarray(S, dtype=float)
    n_rows, C = S.shape
    if k_start < 0 or C == 0:
        return np.zeros(n_rows)
    # one pass per column: best is each row's last kept value (0 before
    # any), at column c_max; top the largest floor of a crossing, k_star - 1
    kept = np.empty((C, n_rows), dtype=bool)
    np.greater(S[:, 0], 0.0, out=kept[0])
    best = np.where(kept[0], S[:, 0], 0.0)
    c_max = kept[0] * 1.0
    top = np.full(n_rows, k_start - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(2, C + 1):
            s = S[:, c - 1]
            np.greater(s, best, out=kept[c - 1])
            cross = (best * c - s * c_max) / (s - best)
            np.maximum(top, np.floor(cross), out=top,
                       where=kept[c - 1] & (c_max > 0))
            np.copyto(best, s, where=kept[c - 1])
            np.copyto(c_max, c, where=kept[c - 1])
    # clipping keeps the int conversion in range and the cap test unchanged
    k_star = np.minimum(top, k_start + _TAIL_CAP + 1).astype(np.int64) + 1
    capped = k_star - k_start > _TAIL_CAP
    k_star[capped] = k_start + _TAIL_CAP
    # the tail from k_star: the last kept hyperbola, or past the cap the row
    # maximum at the first kept offset; one of C zeta values (0 if it keeps
    # nothing) for a row with no finite term.  np.float_power squares through
    # libm pow, the rounding the sums were defined with; np.square and
    # np.power round some products the other way
    coef = np.float_power(best, 2.0)
    zeta = [0.0] + [_zeta2(float(k_start + c)) for c in range(1, C + 1)]
    out = coef * np.array(zeta)[c_max.astype(np.intp)]
    late = np.flatnonzero((k_star > k_start) | capped)
    if not late.size:
        return out
    # the late rows in order of their count of kept hyperbolas; slot i holds
    # each row's i-th one (hs, hc), so the rows with one are a suffix
    n_kept = np.count_nonzero(kept[:, late], axis=0)
    late, n_kept = late[np.argsort(n_kept, kind="stable")], np.sort(n_kept)
    rows, cols = np.nonzero(kept[:, late].T)
    slot = np.arange(rows.size) - np.repeat(np.cumsum(n_kept) - n_kept, n_kept)
    hs, hc = np.empty((2, n_kept[-1], late.size))
    hs[slot, rows], hc[slot, rows] = S[late[rows], cols], cols + 1.0
    L = k_star[late] - k_start
    first = np.cumsum(L) - L
    # each slot's first term, that of the first row with as many hyperbolas
    at = np.append(first, first[-1] + L[-1])[
        np.searchsorted(n_kept, np.arange(n_kept[-1]), "right")]
    # the finite terms, each the maximum over its row's kept hyperbolas; a
    # run is the rows of at most quota terms starting in one quota-sized span
    # (< 2 * quota terms), or a longer row alone in windows of max(quota, 2^10)
    quota = max(1, _BLOCK_ENTRIES // 8)
    finite = np.empty(late.size)
    edges = _run_bounds(2 * (first // quota) + (L > quota)).tolist()
    for a, b in zip(edges, edges[1:]):
        n = int(first[b - 1] + L[b - 1] - first[a])
        step = max(quota, 1 << 10) if b - a == 1 else max(n, 1)
        own = np.repeat(np.arange(a, b), np.minimum(L[a:b], step))
        base = first[own] - first[a] - k_start     # term index - k
        terms = np.full(n, -np.inf)
        for w in range(0, n, step):
            size = min(step, n - w)
            k = (np.arange(w, w + size) - base[:size]).astype(float)
            for i, t in enumerate(np.maximum(
                    at[:n_kept[b - 1]] - first[a] - w, 0).tolist()):
                o, g = own[t:size], terms[w + t:w + size]
                np.maximum(g, hs[i].take(o) / (k[t:] + hc[i].take(o)), out=g)
        finite[a:b] = _run_sums(np.square(terms, out=terms), L[a:b])
    c_tail = np.where(capped[late], hc[0], c_max[late])
    args, inverse = np.unique(k_star[late] + c_tail, return_inverse=True)
    zeta = np.fromiter(map(_zeta2, args.tolist()), float, args.size)
    out[late] = finite + coef[late] * zeta[inverse]
    return out


# ---------------------------------------------------------------------------
# the four inequality checks
#
# Each check runs on a `Signals` batch and returns a dict of result arrays;
# the name without `_batch` is the batch of one FiniteSignal, as scalars.

def _one(res: dict) -> dict:
    return {k: tuple(v[0].tolist()) if v.ndim > 1 else v[0].item()
            for k, v in res.items()}


def _levels(lams) -> np.ndarray:
    lams = np.asarray(lams, dtype=float)
    if (lams <= 0).any():
        raise NonpositiveLambda(lams[lams <= 0][0].item())
    return lams


def level_count_progression_sup_batch(sigs: Signals, ctx: GridContext,
                                      lams) -> dict:
    """#{n : sup_N |progression mean| > lam} and its weak (1,1) bound, per
    signal and its level.

    The scan window is lossless: left of it the supremum is at most
    l1 * max(q) / distance < lam, right of it the operator vanishes.
    """
    lams = _levels(lams)
    reach = np.ceil(sigs.l1 * max(ctx.primes) / lams).astype(np.int64)
    n_lo, n_hi = sigs.lo - reach - ctx.p, sigs.hi + ctx.p
    rows = n_hi - n_lo + 1
    count = _count_above(_grouped(
        lambda group, lo, hi: sup_profile(_lattice_tables(group, ctx, "plus"),
                                          ctx, lo, hi),
        rows, sigs, n_lo, n_hi), rows, lams)
    bound = 4 * (sigs.l1 / lams)
    return {"count": count, "bound": bound, "ok": count <= bound,
            "window": np.stack([n_lo, n_hi], axis=1)}


def level_count_progression_sup(sig: FiniteSignal, ctx: GridContext, lam) -> dict:
    return _one(level_count_progression_sup_batch(Signals.of([sig]), ctx, [lam]))


def deviation_sup_l2_bound_batch(sigs: Signals, ctx: GridContext) -> dict:
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
        return np.cumsum(terms, axis=1)[:, -1]

    rows = (sigs.hi // p - sigs.lo // p + 1) * p
    total = _grouped(lhs, rows, sigs)
    rhs = 32.0 / ctx.K * sigs.bound_M * sigs.l1
    return {"lhs": total, "rhs": rhs, "ok": total <= rhs}


def deviation_sup_l2_bound(sig: FiniteSignal, ctx: GridContext) -> dict:
    return _one(deviation_sup_l2_bound_batch(Signals.of([sig]), ctx))


def _window_sups(sigs: Signals, W: np.ndarray) -> np.ndarray:
    """sup_N |avg of phi over [n, n+N)| for n in [lo - W[s], hi], signal by
    signal."""
    lens = sigs.lengths
    P = _prefix_sums(sigs)
    end = P.shape[1] - 1
    owner, off = _ranges(-W, lens - 1)      # off = n - lo
    return _sweep(P.ravel(), owner * (end + 1), off, lens[owner] - off, end)


def level_count_window_sup_batch(sigs: Signals, lams) -> dict:
    """#{n : sup_N |avg of phi over [n, n+N)| > lam} vs 2*l1/lam, per signal
    and its level."""
    lams = _levels(lams)
    W = np.ceil(sigs.l1 / lams).astype(np.int64) + 1
    rows = sigs.lengths + W
    count = _count_above(_grouped(_window_sups, rows, sigs, W), rows, lams)
    bound = 2 * (sigs.l1 / lams)
    return {"count": count, "bound": bound, "ok": count <= bound}


def level_count_window_sup(sig: FiniteSignal, lam) -> dict:
    return _one(level_count_window_sup_batch(Signals.of([sig]), [lam]))


def _strong_lhs_sq(sigs: Signals) -> np.ndarray:
    """Squared l2 norm of n -> max(0, sup_N (1/N) sum_{k=1..N} phi(n+k)),
    per signal.

    Rows whose supremum is negative count as 0.
    """
    lens = sigs.lengths
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
    return np.cumsum(terms, axis=1)[:, -1]


def strong_l2_window_sup_batch(sigs: Signals) -> dict:
    """l2 norm of n -> sup_N (1/N) sum_{k=1..N} phi(n+k) against 2*||phi||_2,
    per signal.

    Real signals only (the inner sum carries no absolute value; a batch
    holds real values).  The far left field is summed exactly through the
    hyperbola-tail closed form.  The square roots go through libm pow, as
    x ** 0.5 does; np.sqrt rounds some of them the other way.
    """
    lhs = np.float_power(_grouped(_strong_lhs_sq, sigs.lengths, sigs), 0.5)
    rhs = 2.0 * np.float_power(sigs.l2sq, 0.5)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}


def strong_l2_window_sup(sig: FiniteSignal) -> dict:
    return _one(strong_l2_window_sup_batch(Signals.of([sig])))
