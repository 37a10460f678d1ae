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


class LevelTooSmall(ValueError):
    """A level whose scan window binary64 cannot count exactly."""


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

    def __getitem__(self, part: slice | np.ndarray) -> "Signals":
        """The signals of a slice a:b (their values a view) or, in its
        order, of an integer index array."""
        if isinstance(part, slice):
            a, b, _ = part.indices(len(self))
            values = self.values[self.bounds[a]:self.bounds[b]]
        else:
            values = self.values[_ranges(self.bounds[:-1][part],
                                         self.bounds[1:][part] - 1)]
        return Signals(self.lo[part], self.lengths[part], values,
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
# Each float kernel takes a `Signals` batch and evaluates all its signals at
# once, stacked zero-padded on the right, which freezes every prefix sum and
# cumulative table past a signal's end.  The supremum at a start n is a
# maximum of prefix-difference averages (table[c + N] - table[c]) / N.  Near
# the support every route takes it the same way (`_frame_sups`): one shift
# of the whole frame of tables per N, over (signal, residue, column) for the
# lattice routes (`sup_profile`) and over (signal, column) for the window
# routes (`_window_sups`).  Past a table's end a longer N only dilutes the
# frozen difference, so running N to the frame's end changes no count and
# no square (`_window_sups` says why).  The window rows go longest first, so
# each N shifts only the rows that reach it: on the 250 `window_strong`
# signals of each of the 8 program seeds (in-process, 2-core host) a frame
# took 1.2 ms that way and 1.5 ms with every row shifted.  Left of the
# support the table row is 0 up to it, so the value k places off is max
# over c of |S_c| / (k + c): the weak counts take it in closed form
# (`_far_count`), the square sums as hyperbola tails (`sup_sq_tail`).  Sums
# keep the order of the row-at-a-time evaluation, so a signal's results are
# bit-for-bit the same in every batch.

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


def _ranges(n_lo, n_hi):
    """The integers n_lo[s]..n_hi[s], signal by signal."""
    lengths = n_hi - n_lo + 1
    return np.arange(lengths.sum()) - np.repeat(
        np.cumsum(lengths) - lengths - n_lo, lengths)


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


def _far_count(S: np.ndarray, K: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Per signal s, the starts k in [1, K[s, i]] of each row i of S[s] with
    max_c fl(|S[s, i, c-1]| / (k + c)) > lams[s], summed over its rows.

    Rounding is monotone, so each c keeps a prefix k = 1..k_c and a row
    counts min(K, max_c k_c).  fl(|S_c| / m) > lam implies |S_c| / lam > m
    exactly, so floor(fl(|S_c| / lam)) - c never undershoots k_c, and exact
    comparisons step it down to the float boundary (a NaN S_c keeps
    nothing, an infinite one everything).  K + C must stay below 2^53."""
    A = np.abs(S)
    c = np.arange(1.0, S.shape[2] + 1)
    lam = lams[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.fmin(np.fmax(np.floor(A / lam) - c, 0.0), K[:, :, None])
        while (down := (k > 0) & ~(A / (k + c) > lam)).any():
            k -= down
    return k.max(axis=2, initial=0.0).sum(axis=1).astype(np.int64)


def _lattice_tables(sigs: Signals, ctx: GridContext, kind: str):
    """Per-residue cumulative sums of the lattice kernel over each support.

    Returns (blk_lo, T, CH): for signal s, the first point blk_lo[s] of the
    grid intervals its support meets, their number T[s], and CH[s, r, c] the
    sum of the first c kernel values at blk_lo[s] + r + j*p, j = 0..T[s]-1
    (frozen for c > T[s]), added in j order one lattice block at a time.
    The kernel at a point is the cofactor-weighted combination over
    progressions of the own-block smear ("plus") or of |smear minus block
    mean| ("minus"); lattice averages of it reproduce the combined
    operators exactly.
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
    # the running sums down each residue's column (the kernel holds no -0.0)
    CH = np.zeros((len(sigs), p, grid.shape[1] + 1))
    for t in range(grid.shape[1]):
        np.add(CH[:, :, t], kernel[:, t], out=CH[:, :, t + 1])
    return blk_lo, T, CH


def _frame_sups(P: np.ndarray, best: np.ndarray, absolute: bool = True,
                reach=None) -> np.ndarray:
    """best, which holds the window length N = 1 values of each start c <
    end along the last axis of the running sums P (end + 1 long), raised in
    place to the maximum over N = 2..end - c of (P[..., c + N] - P[..., c])
    / N, in absolute value if `absolute`: one shift of the whole frame per
    N.  Given `reach`, non-increasing along P's first axis, each N shifts
    only the leading rows i with reach[i] >= N; the others keep the maximum
    over N <= reach[i]."""
    end = P.shape[-1] - 1
    Ns = np.arange(end + 1)
    rows = np.full(end + 1, len(P)) if reach is None else \
        np.searchsorted(-reach, -Ns, "right")
    for N, a in zip(Ns[2:].tolist(), rows[2:].tolist()):
        vals = P[:a, ..., N:] - P[:a, ..., :end + 1 - N]
        vals /= N
        if absolute:
            np.abs(vals, out=vals)
        np.maximum(best[:a, ..., :end + 1 - N], vals,
                   out=best[:a, ..., :end + 1 - N])
    return best


def sup_profile(tables, ctx: GridContext) -> np.ndarray:
    """Float suprema on the support's blocks, entry [s, r, j0] at
    n = blk_lo[s] + j0*p + r (0 for j0 >= T[s], right of the support), of
    the combined progression mean for tables of kind "plus", of the
    combined deviation for "minus".

    The supremum over window block counts N' is the maximum of
    |CH[r, j0 + N'] - CH[r, j0]| / N'.  Past the table's end the numerator
    is frozen and only dilutes, so the N' with j0 + N' within the table
    suffice, each one shift of the whole frame.  N' = 1 is unreachable at
    r = p - 1, whose last offset takes N' = 2 instead, past the end.
    """
    CH, p = tables[2], ctx.p
    end = CH.shape[2] - 1
    best = np.abs(CH[:, :, 1:] - CH[:, :, :end])
    best[:, p - 1] = -np.inf
    best[:, p - 1, end - 1] = np.abs((CH[:, p - 1, end]
                                      - CH[:, p - 1, end - 1]) / 2)
    return _frame_sups(CH, best)


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
    # whole columns: hi[c] is each row's last kept value before column c + 1
    # (0 before any) and at[c] its column (0), each a running np.fmax, which
    # skips a NaN; top, the largest floor of a crossing of a kept column
    # with the last kept one before it, is k_star - 1
    St, c_of = S.T, np.arange(1.0, C + 1)[:, None]
    hi, at = np.empty((2, C + 1, n_rows))
    hi[0] = at[0] = 0.0
    for c in range(C):
        np.fmax(hi[c], St[c], out=hi[c + 1])
    kept = St > hi[:-1]
    cols = kept * c_of
    for c in range(C):
        np.fmax(at[c], cols[c], out=at[c + 1])
    h, a = hi[1:-1], at[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = h * c_of[1:]
        cross -= St[1:] * a
        cross /= St[1:] - h
    top = np.max(np.floor(cross, out=cross), axis=0, initial=k_start - 1.0,
                 where=kept[1:] & (a > 0))
    # copied, so the columns are freed before the finite terms are built
    best, c_max = hi[-1].copy(), at[-1].copy()
    del St, hi, at, cols, h, a, cross
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


def _levels(lams, l1: np.ndarray, scale: int) -> np.ndarray:
    """The levels in binary64, each positive and with the scan window's
    reach l1 * scale / lam below 2^52, so that every start, window length
    and count of a weak check is an integer binary64 holds exactly."""
    lams = np.asarray(lams, dtype=float)
    if (lams <= 0).any():
        raise NonpositiveLambda(lams[lams <= 0][0].item())
    with np.errstate(over="ignore", invalid="ignore"):
        reach = l1 * scale / lams
    bad = np.flatnonzero(~(reach < 2.0 ** 52))
    if bad.size:
        raise LevelTooSmall(f"level {lams[bad[0]].item()!r}: the scan window "
                            f"reaches l1 * {scale} / level = "
                            f"{reach[bad[0]].item()!r} starts, not below 2^52")
    return lams


def _level_counts(fn, rows, sigs: Signals, lams, m, *args) -> np.ndarray:
    """Per signal s, the count fn(sigs, lams, *args) gives (through
    `_grouped`, rows[s] the signal's share of a group) of starts whose
    supremum exceeds lams[s].  A level above the threshold
    M + (m + 3) 2^-51 l1 + 2^-1000 counts 0 without a sweep: no value the
    route can give exceeds it (m[s] as the route's docstring derives it).

    Each value is |an average of phi's values| (weights summing to 1), so
    at most M = max|phi| in exact arithmetic.  In binary64 (u = 2^-53,
    gamma_k = k u / (1 - k u)) the route's sums carry relative errors only;
    its products and quotients also an absolute 2^-1075 each where they
    underflow.  Each value the route gives is therefore at most

        (1 + u)^2 (M + 2 gamma_m ||phi||_1) + E,   E << 2^-1000,

    with E as the route's docstring states it.  The threshold is evaluated
    with three roundings (the factor (m + 3) 2^-51 is exact), and l1 is
    ||phi||_1 within a relative gamma_{L-1} (L samples summed in any
    order), so it is at least

        (1 - u)^2 M + (1 - u)^3 (1 - gamma_{L-1}) 4 (m + 3) u ||phi||_1
            - 2^-1075 + (1 - u) 2^-1000.

    When (m + L + 3) u <= 2^-10, as for any signal that fits in memory, the
    threshold is the larger: the M terms differ by 4u M <= 4u ||phi||_1,
    the bound's other relative part is at most 2m (1 + 2^-8) u ||phi||_1
    while the threshold's is at least (4m + 12)(1 - 2^-9) u ||phi||_1, and
    2^-1000 covers E and 2^-1075.  No running sum overflows while
    l1 < 2^1023; a larger l1 decides nothing.
    """
    count = np.zeros(len(sigs), dtype=np.intp)
    decided = (lams > sigs.bound_M + (m + 3) * 2.0 ** -51 * sigs.l1
               + 2.0 ** -1000) & (sigs.l1 < 2.0 ** 1023)
    swept = np.flatnonzero(~decided)
    if swept.size:
        count[swept] = _grouped(fn, rows[swept], sigs[swept], lams[swept],
                                *(a[swept] for a in args))
    return count


def level_count_progression_sup_batch(sigs: Signals, ctx: GridContext,
                                      lams) -> dict:
    """#{n : sup_N |progression mean| > lam} and its weak (1,1) bound, per
    signal and its level.

    The support's T blocks are one `sup_profile` frame; at n = blk_lo + r
    - k*p left of them the supremum is max_c |CH[r, c]| / (k + c), counted
    in closed form (`_far_count`) down to the window's left edge lo -
    ceil(l1 max(q) / lam) - p, past which it is below lam.

    A level above max|phi| plus a float margin counts 0 without a sweep
    (`_level_counts`).  The route's values are |CH[b] - CH[a]| / N, CH the
    running sums of the lattice kernel down one residue's T lattice
    blocks; the kernel at x is sum_j (q~_j / pQ) smear_j(x), a convex
    combination of averages of q~_j values, so |kernel| <= M.  Charged to
    each value of phi in x's class mod q_j, the binary64 kernel carries a
    relative gamma_{q~_j - 1} from the class sum, one rounding each for
    the division by q~_j, the weighting by q~_j and the division by pQ,
    and gamma_{K-1} from adding the K progressions: gamma_{max q~ + K + 1}
    at most.  The running sum over T blocks adds gamma_{T-1}.  The points
    of one residue column lie in distinct blocks, so their classes mod q_j
    hold each value at most once for each j, and every CH entry is off by
    at most gamma_m (K / pQ) ||phi||_1 <= gamma_m ||phi||_1 with
    m = max q~ + K + T.  The difference and the division by N are the two
    roundings of (1 + u)^2.  Underflow adds at most 3 * 2^-1075 to a
    kernel entry (the q~_j quotients are weighted by q~_j / pQ, which sum
    to 1), so E = (6T + 1) 2^-1075.
    """
    p = ctx.p
    lams = _levels(lams, sigs.l1, max(ctx.primes))
    reach = np.ceil(sigs.l1 * max(ctx.primes) / lams).astype(np.int64)
    n_lo, n_hi = sigs.lo - reach - p, sigs.hi + p
    T = sigs.hi // p + 1 - sigs.lo // p

    def counts(group, lams, n_lo):
        tables = _lattice_tables(group, ctx, "plus")
        # row r's starts left of the support: blk_lo + r - k*p, k = 1..K
        K = (tables[0][:, None] + np.arange(p) - n_lo[:, None]) // p
        return np.count_nonzero(sup_profile(tables, ctx) > lams[:, None, None],
                                axis=(1, 2)) + \
            _far_count(tables[2][:, :, 1:], K, lams)

    count = _level_counts(counts, T * p, sigs, lams,
                          max(ctx.qtil) + ctx.K + T, n_lo)
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
        _, T, CH = tables
        sups = sup_profile(tables, ctx)
        # the near sum in n order (j0, then r), then row r's tail (n =
        # blk_lo + r - k*p, k >= 1): cumsum adds along a row in order
        near = sups.transpose(0, 2, 1)[np.arange(sups.shape[2]) < T[:, None]]
        terms = np.empty((len(group), p + 1))
        terms[:, 0] = _run_sums(near.ravel() ** 2, T * p)
        terms[:, 1:] = sup_sq_tail(CH[:, :, 1:].reshape(-1, CH.shape[2] - 1),
                                   1).reshape(-1, p)
        return np.cumsum(terms, axis=1)[:, -1]

    rows = (sigs.hi // p - sigs.lo // p + 1) * p
    total = _grouped(lhs, rows, sigs)
    rhs = 32.0 / ctx.K * sigs.bound_M * sigs.l1
    return {"lhs": total, "rhs": rhs, "ok": total <= rhs}


def deviation_sup_l2_bound(sig: FiniteSignal, ctx: GridContext) -> dict:
    return _one(deviation_sup_l2_bound_batch(Signals.of([sig]), ctx))


def _window_sups(sigs: Signals, absolute: bool) -> tuple:
    """P, row s 0 and then the running sums of signal s (frozen past its
    end), and the frame of sups: [s, o] the maximum of (P[s, o + N] -
    P[s, o]) / N, in absolute value if `absolute`, over N = 1..L[s] - o and
    possibly longer N.

    The longer N change no count and no square: past a signal's end P is
    frozen, so a longer N only dilutes the same difference.  An absolute
    average can only fall.  A signed one can only rise toward 0, never
    above it, and the strong route squares max(sup, 0).  Right of a
    signal's end (o >= L[s]) every difference is 0, which no positive level
    counts.  The rows go through `_frame_sups` longest first, so each N
    shifts only the rows that reach it."""
    lens = sigs.lengths
    order = np.argsort(-lens, kind="stable")
    P = np.zeros((len(sigs), lens.max() + 1))
    P[:, 1:] = np.cumsum(_padded(sigs, lens.max(), 0), axis=1)
    by_len = P[order]
    best = by_len[:, 1:] - by_len[:, :-1]
    if absolute:
        np.abs(best, out=best)
    sups = np.empty_like(best)
    sups[order] = _frame_sups(by_len, best, absolute, lens[order])
    return P, sups


def level_count_window_sup_batch(sigs: Signals, lams) -> dict:
    """#{n : sup_N |avg of phi over [n, n+N)| > lam} vs 2*l1/lam, per signal
    and its level.

    The starts on the support are one `_window_sups` frame; k places left
    of it the supremum is max_c |P_c| / (k + c), counted in closed form
    (`_far_count`) for k up to W = ceil(l1 / lam) + 1, past which it is
    below lam.

    A level above max|phi| plus a float margin counts 0 without a sweep
    (`_level_counts`).  The route's values are |P[b] - P[a]| / N, P the
    sequential running sums of phi (frozen past its end, 0 before it):
    each P[k] is off by at most gamma_{k-1} times the l1 norm of its
    terms, so by gamma_m ||phi||_1 with m = L - 1.  The difference and the
    division by N are the two roundings of (1 + u)^2; only the division
    can underflow, so E = 2^-1075.
    """
    lams = _levels(lams, sigs.l1, 1)
    W = np.ceil(sigs.l1 / lams).astype(np.int64) + 1

    def counts(group, lams, W):
        P, sups = _window_sups(group, True)
        return np.count_nonzero(sups > lams[:, None], axis=1) + \
            _far_count(P[:, None, 1:], W[:, None], lams)

    count = _level_counts(counts, sigs.lengths, sigs, lams, sigs.lengths - 1, W)
    bound = 2 * (sigs.l1 / lams)
    return {"count": count, "bound": bound, "ok": count <= bound}


def level_count_window_sup(sig: FiniteSignal, lam) -> dict:
    return _one(level_count_window_sup_batch(Signals.of([sig]), [lam]))


def _strong_lhs_sq(sigs: Signals) -> np.ndarray:
    """Squared l2 norm of n -> max(0, sup_N (1/N) sum_{k=1..N} phi(n+k)),
    per signal.

    Rows whose supremum is negative count as 0.
    """
    # column o = n + 1 - lo: the window [n+1, n+N] meets the support iff n < hi
    P, sups = _window_sups(sigs, False)
    # row s: the squares in n order, zeros past the signal's end, then the
    # far-left tail (n = lo - 1 - k, k >= 1; value max(0, max_c P_c/(k + c)));
    # cumsum adds them in that order.  np.float_power squares through libm
    # pow, the rounding the sum was defined with; a sup <= 0 squares to 0
    terms = np.zeros(P.shape)
    np.float_power(sups, 2.0, out=terms[:, :-1], where=~(sups <= 0.0))
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
