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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import polygamma

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
        out = 1
        for q in self.primes:
            out *= q
        return out

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


class FiniteSignal:
    """Function on Z supported on [lo, lo+len(values))."""

    def __init__(self, lo: int, values):
        self.lo = int(lo)
        self.values = list(values)
        if not self.values:
            raise ValueError("signal needs at least one sample")

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def __call__(self, n: int):
        if self.lo <= n <= self.hi:
            return self.values[n - self.lo]
        return 0

    @property
    def bound_M(self):
        return max(abs(v) for v in self.values)

    @property
    def l1(self):
        return sum(abs(v) for v in self.values)

    @property
    def l2sq(self):
        return sum(abs(v) ** 2 for v in self.values)

    def as_floats(self) -> "FiniteSignal":
        return FiniteSignal(self.lo, [float(v) for v in self.values])

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
    n = np.arange(p)
    kernel = np.exp(-2j * np.pi * np.outer(n, n) / p)
    return Spectrum(p, kernel.T @ block / p)


def idft(spec: Spectrum) -> np.ndarray:
    p = spec.p
    if spec.coeffs.size != p:
        raise LengthMismatch("spectrum length must equal its period")
    n = np.arange(p)
    kernel = np.exp(2j * np.pi * np.outer(n, n) / p)
    return kernel @ spec.coeffs


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
# fast float profiles over n-ranges (shared by the inequality batteries)
#
# sup_profile and the float window checks evaluate one (n, N') matrix (in
# blocks of bounded size) instead of looping over n or over residues, and
# sup_sq_tail takes every residue row at once.  Columns shared across rows
# reach past some rows' own range; there the window index is clipped to the
# end of the table, so the numerator is frozen while the denominator grows,
# and under correctly rounded division no such entry exceeds one already in
# the row's own range: every row maximum equals the one the row alone would
# give.  Sums keep the order of the row-at-a-time evaluation, so results are
# bit-for-bit the same.

# entries per (n, N') matrix block: keeps the temporaries near 8 MB each
_BLOCK_ENTRIES = 1 << 20


def _row_blocks(n_lo: int, n_hi: int, width: int, fn) -> np.ndarray:
    """fn(a, b) over consecutive sub-ranges [a, b] of [n_lo, n_hi], joined.

    `width` bounds the row length of every block fn builds; each block holds
    at most _BLOCK_ENTRIES entries.
    """
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    if n_hi - n_lo < step:
        return fn(n_lo, n_hi)
    return np.concatenate([fn(a, min(a + step - 1, n_hi))
                           for a in range(n_lo, n_hi + 1, step)])


def _lattice_tables(sig: FiniteSignal, ctx: GridContext, kind: str):
    """Per-residue cumulative sums of the lattice kernel over the support.

    Returns (blk_lo, T, CH) with CH[r, c] the sum of the first c kernel
    values at blk_lo + r + j*p, j = 0..T-1.  The kernel at a point is the
    cofactor-weighted combination over progressions of the own-block smear
    ("plus") or of |smear minus block mean| ("minus"); lattice averages of it
    reproduce the combined operators exactly.
    """
    p = ctx.p
    blk_lo = (ctx.t(sig.lo) - 1) * p
    blk_hi = ctx.t(sig.hi) * p
    T = (blk_hi - blk_lo) // p
    dense = np.zeros(T * p)
    off = sig.lo - blk_lo
    dense[off:off + len(sig.values)] = [float(v) for v in sig.values]
    grid = dense.reshape(T, p)
    avg = grid.mean(axis=1)
    kernel = np.zeros((T, p))
    cols = np.arange(p)
    for j, q in enumerate(ctx.primes):
        qtil = ctx.qtil[j]
        class_sum = grid.reshape(T, qtil, q).sum(axis=1)   # per residue mod q
        smear = class_sum[:, cols % q] / qtil
        if kind == "plus":
            kernel += qtil * smear
        else:
            kernel += qtil * np.abs(smear - avg[:, None])
    kernel /= ctx.pQ
    CH = np.zeros((p, T + 1))
    CH[:, 1:] = np.cumsum(kernel.T, axis=1)
    return blk_lo, T, CH


def sup_profile(tables, ctx: GridContext, n_lo: int, n_hi: int) -> np.ndarray:
    """Float suprema on [n_lo, n_hi] of the operator `tables` was built for.

    `tables` is `_lattice_tables(sig, ctx, kind)`: the suprema of the
    combined progression mean for kind "plus", of the combined deviation for
    "minus".  For each n the supremum over window block counts N' reduces to
    a maximum over the cumulative kernel table row r = n mod p from lattice
    offset j0 = (n - blk_lo - r)/p: values with the window beyond the support
    keep a frozen numerator and only dilute, so columns past the support
    never raise the maximum and the finite matrix is exact.  N' = 1 is
    unreachable at r = p - 1 and is masked there.
    """
    p = ctx.p
    blk_lo, T, CH = tables

    def block(a: int, b: int) -> np.ndarray:
        n = np.arange(a, b + 1)
        r = n % p
        j0 = (n - blk_lo) // p
        Nps = np.arange(1, max(T - int(j0[0]), 2) + 1)
        base = CH[r, np.clip(j0, 0, T)]
        hi_idx = np.clip(j0[:, None] + Nps, 0, T)
        vals = np.abs(CH[r[:, None], hi_idx] - base[:, None]) / Nps
        vals[r == p - 1, 0] = -np.inf
        return vals.max(axis=1)

    return _row_blocks(n_lo, n_hi, max(T - (n_lo - blk_lo) // p, 2), block)


def _hyperbola_sq_sums(KS: np.ndarray, lengths: np.ndarray,
                       k_start: int) -> np.ndarray:
    """Per row i, np.sum over k in [k_start, k_start + lengths[i]) of
    (max_c KS[i, c-1] / (k + c))^2, where -inf entries drop out.

    The rows are flattened into one (row, k) array; each sum is taken as one
    2-D np.sum over the rows of equal length, which adds in the same
    (pairwise) order as np.sum on the row alone.
    """
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(lengths.size), lengths)
    ks = (k_start + np.arange(owner.size) - starts[owner]).astype(float)
    grid = np.full(owner.size, -np.inf)
    for c in range(1, KS.shape[1] + 1):
        grid = np.maximum(grid, KS[owner, c - 1] / (ks + c))
    sq = grid ** 2
    out = np.zeros(lengths.size)
    for L in np.unique(lengths[lengths > 0]).tolist():
        sel = np.flatnonzero(lengths == L)
        out[sel] = np.sum(sq[starts[sel][:, None] + np.arange(L)], axis=1)
    return out


def sup_sq_tail(S, k_start: int, cap: int = 200_000):
    """Exact sum over k >= k_start of max(0, max_c S_c/(k+c))^2.

    S is one row S_1..S_C (returns a float) or a 2-D array of such rows
    (returns one sum per row).  Per row, the maximum of finitely many
    hyperbolas stabilizes to the largest-S one beyond the last pairwise
    crossing; from there the series is a Hurwitz zeta value (polygamma).  If
    crossings exceed `cap`, the remainder is over-bounded by the largest-S
    hyperbola at the smallest kept offset, which keeps the result a valid
    upper bound.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 1:
        return float(sup_sq_tail(S[None, :], k_start, cap)[0])
    out = np.zeros(S.shape[0])
    if k_start < 0 or S.shape[1] == 0:
        return out
    best = np.maximum.accumulate(np.maximum(S, 0.0), axis=1)
    kr = np.flatnonzero(best[:, -1] > 0)       # rows with a positive value
    S, best = S[kr], best[kr]
    # keep (c, S_c) when S_c beats 0 and every smaller-c value of its row
    kept = S > np.c_[np.zeros(kr.size), best[:, :-1]]
    rows, cols = np.nonzero(kept)              # row-major: c ascending
    # beyond a crossing of consecutive kept pairs the larger-S one dominates;
    # clipping keeps the int conversion in range and the cap test unchanged
    pair = np.flatnonzero(rows[1:] == rows[:-1])
    r1, c1, c2 = rows[pair], cols[pair], cols[pair + 1]
    s1, s2 = S[r1, c1], S[r1, c2]
    cross = (s1 * (c2 + 1) - s2 * (c1 + 1)) / (s2 - s1)
    cross = np.clip(cross, k_start - 1, k_start + cap + 1)
    k_star = np.full(kr.size, k_start, dtype=np.int64)
    np.maximum.at(k_star, r1, np.floor(cross).astype(np.int64) + 1)
    capped = k_star - k_start > cap
    k_star[capped] = k_start + cap
    # the finite part k < k_star, in row groups of bounded total length
    lengths = k_star - k_start
    group = (np.cumsum(lengths) - lengths) // _BLOCK_ENTRIES
    KS = np.where(kept, S, -np.inf)
    finite = np.zeros(kr.size)
    for g in np.unique(group).tolist():
        sel = group == g
        finite[sel] = _hyperbola_sq_sums(KS[sel], lengths[sel], k_start)
    # the tail from k_star: the last kept hyperbola (the first c reaching the
    # row maximum), or past the cap the row maximum at the first kept offset
    s_max = best[:, -1]
    c_tail = np.where(capped, np.argmax(S > 0, axis=1), np.argmax(S, axis=1)) + 1
    # square through Python floats (libm pow): numpy's square rounds some
    # exact ties the other way
    coef = np.array([v ** 2 for v in s_max.tolist()])
    out[kr] = finite + coef * polygamma(1, k_star + c_tail)
    return out


# ---------------------------------------------------------------------------
# the four inequality checks

def level_count_progression_sup(sig: FiniteSignal, ctx: GridContext, lam) -> dict:
    """#{n : sup_N |progression mean| > lam} and its weak (1,1) bound.

    The scan window is lossless: left of it the supremum is at most
    l1 * max(q) / distance < lam, right of it the operator vanishes.
    """
    if lam <= 0:
        raise NonpositiveLambda(lam)
    l1 = sig.l1
    W = math.ceil(l1 * max(ctx.primes) / lam) + ctx.p
    n_lo, n_hi = sig.lo - W, sig.hi + ctx.p
    profile = sup_profile(_lattice_tables(sig, ctx, "plus"), ctx, n_lo, n_hi)
    count = int(np.sum(profile > float(lam)))
    bound = 4 * (float(l1) / float(lam))
    return {"count": count, "bound": bound, "ok": count <= bound,
            "window": (n_lo, n_hi)}


def deviation_sup_l2_bound(sig: FiniteSignal, ctx: GridContext) -> dict:
    """Sum over n of (deviation supremum)^2 against (32/K) * M * l1.

    The near zone is summed directly; the two-sided far field is exact via
    the hyperbola-tail closed form, so no truncation tolerance enters.
    """
    p = ctx.p
    tables = _lattice_tables(sig, ctx, "minus")
    blk_lo, T, CH = tables
    sups = sup_profile(tables, ctx, blk_lo, blk_lo + T * p - 1)
    lhs = float(np.sum(sups ** 2))
    # row r: n = blk_lo + r - k*p, k >= 1; added residue by residue
    for tail in sup_sq_tail(CH[:, 1:], k_start=1).tolist():
        lhs += tail
    M = float(sig.bound_M)
    rhs = 32.0 / ctx.K * M * float(sig.l1)
    # the unsquared norm form is checked alongside; the squared-sum bound is
    # the one asserted by the batteries
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs,
            "norm_ok": lhs ** 0.5 <= rhs}


def level_count_window_sup(sig: FiniteSignal, lam) -> dict:
    """#{n : sup_N |avg of phi over [n, n+N)| > lam} vs 2*l1/lam."""
    if lam <= 0:
        raise NonpositiveLambda(lam)
    l1 = sig.l1
    W = math.ceil(l1 / lam) + 1
    n_lo, n_hi = sig.lo - W, sig.hi
    vals = np.array([float(v) for v in sig.values])
    P = np.concatenate([[0.0], np.cumsum(vals)])

    def block(a: int, b: int) -> np.ndarray:
        off = np.arange(a, b + 1) - sig.lo
        Ns = np.arange(1, sig.hi - a + 2)
        idx = np.clip(off[:, None] + Ns, 0, len(vals))
        base = P[np.clip(off, 0, len(vals))]
        return np.max(np.abs(P[idx] - base[:, None]) / Ns, axis=1)

    sup = _row_blocks(n_lo, n_hi, sig.hi - n_lo + 1, block)
    count = int(np.sum(sup > float(lam)))
    bound = 2 * (float(l1) / float(lam))
    return {"count": count, "bound": bound, "ok": count <= bound}


def strong_l2_window_sup(sig: FiniteSignal) -> dict:
    """l2 norm of n -> sup_N (1/N) sum_{k=1..N} phi(n+k) against 2*||phi||_2.

    Real signals only (the inner sum carries no absolute value).  The far
    left field is summed exactly through the hyperbola-tail closed form.
    """
    if any(isinstance(v, complex) for v in sig.values):
        raise TypeError("one-sided strong bound is implemented for real signals")
    vals = np.array([float(v) for v in sig.values])
    P = np.concatenate([[0.0], np.cumsum(vals)])

    def block(a: int, b: int) -> np.ndarray:
        off = np.arange(a, b + 1) - sig.lo + 1
        Ns = np.arange(1, sig.hi - a + 1)
        idx = np.clip(off[:, None] + Ns, 0, len(vals))
        base = P[np.clip(off, 0, len(vals))]
        return np.max((P[idx] - base[:, None]) / Ns, axis=1)

    # n+1 ranges over [lo - 0, hi]: window [n+1, n+N] meets support iff n < hi
    sups = _row_blocks(sig.lo - 1, sig.hi - 1, len(vals), block)
    lhs_sq = 0.0
    for sup in sups.tolist():
        # in n order and through Python floats (libm pow): np.sum of numpy
        # squares would move the last bit
        lhs_sq += max(0.0, sup) ** 2
    # far left: n = lo - 1 - k, k >= 1; value max(0, max_c P_c/(k + c))
    lhs_sq += sup_sq_tail(P[1:], k_start=1)
    rhs = 2.0 * float(sig.l2sq) ** 0.5
    lhs = lhs_sq ** 0.5
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs}
