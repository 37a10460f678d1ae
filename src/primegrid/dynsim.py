"""Concrete measure-preserving systems and subsequence ergodic averages.

Three system families are enough for desk-scale experiments: circle rotations
(sampled in 128-bit fixed point so indicator evaluations stay exact relative
to the dyadic angle over 10^8 steps), cyclic rotations on Z_P (exact closed
forms), and i.i.d. 0/1 symbol streams from the package's stateless generator.

The subsequence average at horizon N is the mean of the observable over the
orbit positions picked out by the constructed sequence below N.  The module
also houses the threshold decomposition of an observable against a ledger's
cumulative counts, and Rokhlin-style towers on Z_P with the exact transfer
check onto the grid operators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ledger import Ledger
from .rng import SplitMix64, index_u64_array
from .sequence import SequenceStore
from .zops import FiniteSignal, GridContext, progression_mean, progression_mean_j

F = Fraction

FIXED_BITS = 128
_ONE = 1 << FIXED_BITS
_U64_MAX = (1 << 64) - 1


class BadSpec(ValueError):
    pass


class HorizonExceeded(Exception):
    pass


class TowerTooShort(Exception):
    pass


# ---------------------------------------------------------------------------
# observables and systems

@dataclass(frozen=True)
class StepObservable:
    """Finite-valued step function on [0, 1): breaks[i] <= x < breaks[i+1]."""

    breaks: tuple[Fraction, ...]      # 0 = b_0 < ... < b_k = 1
    values: tuple[Fraction, ...]      # one per piece

    def __post_init__(self):
        bs = self.breaks
        if bs[0] != 0 or bs[-1] != 1 or any(a >= b for a, b in zip(bs, bs[1:])):
            raise BadSpec("breaks must increase from 0 to 1")
        if len(self.values) != len(bs) - 1:
            raise BadSpec("one value per piece")

    @property
    def mean(self) -> Fraction:
        return sum(v * (b - a) for v, a, b in
                   zip(self.values, self.breaks, self.breaks[1:]))

    def thresholds_fixed(self) -> list[int]:
        """ceil(b * 2^FIXED_BITS) per break; exact comparisons for fixed-point x."""
        return [-((-b.numerator << FIXED_BITS) // b.denominator) for b in self.breaks]


def indicator(lo: Fraction, hi: Fraction) -> StepObservable:
    lo, hi = F(lo), F(hi)
    if not 0 <= lo < hi <= 1:
        raise BadSpec("indicator endpoints must satisfy 0 <= lo < hi <= 1")
    breaks = [F(0), lo, hi, F(1)]
    values = [F(0), F(1), F(0)]
    if lo == 0:
        breaks, values = breaks[1:], values[1:]
    if hi == 1:
        breaks, values = breaks[:-1], values[:-1]
    return StepObservable(tuple(breaks), tuple(values))


def golden_alpha_fixed(bits: int = FIXED_BITS) -> int:
    """frac((sqrt(5)-1)/2) in fixed point, exact to the last bit."""
    return (math.isqrt(5 << (2 * bits)) - (1 << bits)) // 2


@dataclass(frozen=True)
class RotationSystem:
    """x -> x + alpha mod 1 with alpha given in 128-bit fixed point."""

    alpha_fixed: int

    @staticmethod
    def golden() -> "RotationSystem":
        return RotationSystem(golden_alpha_fixed())

    @staticmethod
    def from_fraction(alpha: Fraction) -> "RotationSystem":
        alpha = F(alpha)
        if not 0 < alpha < 1:
            raise BadSpec("alpha must lie in (0, 1)")
        fixed = (alpha.numerator << FIXED_BITS) // alpha.denominator
        return RotationSystem(fixed)


@dataclass(frozen=True)
class CyclicSystem:
    """x -> x + 1 on Z_P with an observable table indexed by residue."""

    P: int
    table: tuple          # exact values per residue

    def __post_init__(self):
        if self.P < 1 or len(self.table) != self.P:
            raise BadSpec("table must have exactly P entries")

    @property
    def mean(self) -> Fraction:
        return F(sum(self.table), self.P)

    @functools.cached_property
    def table_array(self) -> np.ndarray:
        """The table as int64 when every entry is an integer, else as
        floats; built once per system, and read-only.

        A table of ints (or bools) that fit int64 is converted in one NumPy
        call; any other table (Fractions, floats) goes through one Fraction
        per entry."""
        arr = np.array(self.table)
        if arr.ndim == 1 and arr.dtype.kind in "bi":
            out = arr.astype(np.int64)
        elif all(F(v).denominator == 1 for v in self.table):
            out = np.array([int(v) for v in self.table], dtype=np.int64)
        else:
            out = np.array([float(v) for v in self.table])
        out.flags.writeable = False
        return out


@dataclass(frozen=True)
class BernoulliSystem:
    """i.i.d. 0/1 symbols; symbol at index n is a pure function of (seed, n)."""

    prob: Fraction
    seed: int

    def __post_init__(self):
        if not 0 <= self.prob <= 1:
            raise BadSpec("prob must lie in [0, 1]")

    @property
    def threshold(self) -> int:
        return (F(self.prob).numerator << 64) // F(self.prob).denominator

    @property
    def mean(self) -> Fraction:
        return F(self.threshold, 1 << 64)    # the exactly realized rate


def _x0_fixed(x0) -> int:
    x0 = F(x0)
    if not 0 <= x0 < 1:
        raise BadSpec("x0 must lie in [0, 1)")
    return (x0.numerator << FIXED_BITS) // x0.denominator


def _residue(system: CyclicSystem, x0) -> int:
    x0 = F(x0)
    if x0.denominator != 1:
        raise BadSpec(f"cyclic x0 must be an integer residue, got {x0}")
    return int(x0) % system.P


# positions per pass of sample_at: the rotation kernel keeps about ten
# uint64 temporaries of this length (64 KB each) live at once, whatever the
# number of positions
_ROTATION_CHUNK = 1 << 13
_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _words(v: int) -> tuple[np.uint64, np.uint64]:
    """The high and low 64-bit words of 0 <= v < 2^128."""
    return np.uint64(v >> 64), np.uint64(v & _U64_MAX)


def _rotation_words(x0f: int, alpha: int, n: np.ndarray):
    """(x0f + n * alpha) mod 2^128 as its high and low uint64 words.

    n * alpha_lo is assembled from the four 32-bit partial products of the
    limbs of n and of alpha_lo, each below 2^64, with the carries out of the
    middle column taken explicitly; n * alpha_hi only reaches the high word,
    where uint64 arithmetic wraps modulo 2^64 as the 128-bit sum does.  An
    int64 n < 0 is its uint64 view minus 2^64, which takes alpha_lo off the
    high word.
    """
    a_hi, a_lo = _words(alpha)
    x_hi, x_lo = _words(x0f)
    u = n.view(np.uint64)
    n0, n1 = u & _U32, u >> _S32
    a0, a1 = a_lo & _U32, a_lo >> _S32
    p00, p01, p10 = n0 * a0, n0 * a1, n1 * a0
    mid = (p00 >> _S32) + (p01 & _U32) + (p10 & _U32)        # < 3 * 2^32
    lo = (mid << _S32) | (p00 & _U32)
    hi = n1 * a1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32) + u * a_hi
    hi -= (n < 0) * a_lo
    lo += x_lo
    hi += x_hi + (lo < x_lo)                                 # carry of the add
    return hi, lo


def _rotation_pieces(thresholds: list[int], x0f: int, alpha: int,
                     n: np.ndarray) -> np.ndarray:
    """Per position, the index of the step piece holding its orbit point:
    how many of the thresholds after the first (which is 0) it reaches."""
    hi, lo = _rotation_words(x0f, alpha, n)
    piece = np.zeros(n.size, dtype=np.intp)
    for t in thresholds[1:]:
        if t < _ONE:                       # 2^128 is past every point
            t_hi, t_lo = _words(t)
            piece += (hi > t_hi) | ((hi == t_hi) & (lo >= t_lo))
    return piece


def _by_chunk(positions: np.ndarray, dtype, values) -> np.ndarray:
    """values(n) for the positions, shaped like them, where n is one
    _ROTATION_CHUNK of the flattened positions widened to int64."""
    flat = positions.ravel()
    out = np.empty(flat.size, dtype=dtype)
    for a in range(0, flat.size, _ROTATION_CHUNK):
        n = flat[a:a + _ROTATION_CHUNK].astype(np.int64)
        out[a:a + n.size] = values(n)
    return out.reshape(positions.shape)


def sample_at(system, x0, positions, observable: StepObservable | None = None) -> np.ndarray:
    """Observable values f(T^n x0) at the orbit positions n in `positions`.

    The only code that evaluates an observable along an orbit.  The dtype is
    int64 when every value f can take is an integer (Bernoulli symbols
    always), float64 otherwise, also for an empty `positions`.  A rotation
    point is exact in 128-bit fixed point, held as two uint64 words.
    Integer positions (a store's int32 elements) are widened to int64 one
    chunk at a time, never as a whole.
    """
    positions = np.asarray(positions)
    if positions.dtype.kind != "i":
        positions = positions.astype(np.int64)
    if isinstance(system, RotationSystem):
        if observable is None:
            raise BadSpec("rotation systems need a step observable")
        thr = observable.thresholds_fixed()
        ints = all(v.denominator == 1 for v in observable.values)
        pieces = np.array([int(v) if ints else float(v) for v in observable.values],
                          dtype=np.int64 if ints else np.float64)
        x0f = _x0_fixed(x0)
        return _by_chunk(positions, pieces.dtype, lambda n: pieces[
            _rotation_pieces(thr, x0f, system.alpha_fixed, n)])
    if isinstance(system, CyclicSystem):
        table, r = system.table_array, _residue(system, x0)
        return _by_chunk(positions, table.dtype,
                         lambda n: table[(r + n) % system.P])
    if isinstance(system, BernoulliSystem):
        thr = system.threshold
        if thr > _U64_MAX:                   # prob = 1
            return np.ones(positions.size, dtype=np.int64)
        return _by_chunk(positions, np.int64, lambda n: index_u64_array(
            system.seed, n) < np.uint64(thr))
    raise BadSpec(f"unknown system {system!r}")


@dataclass(frozen=True)
class Orbit:
    """The orbit n -> f(T^n x0), 0 <= n < n_max, evaluated on demand.

    Nothing is sampled up front: `at` evaluates the observable at the
    positions asked for, so a subsequence average costs one evaluation per
    sequence element, not one per orbit position.
    """

    system: object
    x0: object
    observable: StepObservable | None
    n_max: int
    mean_true: Fraction

    def at(self, positions) -> np.ndarray:
        return sample_at(self.system, self.x0, positions, self.observable)


def sample_orbit(system, x0, n_max: int, observable: StepObservable | None = None) -> Orbit:
    """The orbit of x0 through n_max positions; bad specs fail here, not later."""
    if n_max < 1:
        raise BadSpec("n_max must be >= 1")
    sample_at(system, x0, (), observable)    # the system, x0 and observable checks
    mean = observable.mean if isinstance(system, RotationSystem) else system.mean
    return Orbit(system, x0, observable, n_max, mean)


# ---------------------------------------------------------------------------
# subsequence averages
#
# Every average reads its mean from one running sum over the samples, added
# in sequence order.  Integer samples give exact Fraction averages, float
# samples float ones; the result type follows the samples' dtype, also when
# no element is below N.

def _running_sum(samples: np.ndarray) -> np.ndarray:
    """pref[k], the sum of the first k samples (int64 for integer samples),
    summed straight into its place after the leading 0."""
    pref = np.empty(samples.size + 1,
                    dtype=np.int64 if samples.dtype.kind in "biu" else np.float64)
    pref[0] = 0
    np.cumsum(samples, dtype=pref.dtype, out=pref[1:])
    return pref


def _mean(pref: np.ndarray, k: int):
    """The mean of the first k samples from their running sum (0 if k is 0)."""
    if pref.dtype.kind == "i":
        return F(int(pref[k]), k) if k else F(0)
    return float(pref[k]) / k if k else 0.0


def _orbit_sum(orbit: Orbit, store: SequenceStore, N: int) -> np.ndarray:
    """The running sum of f over the orbit at the sequence points < N."""
    if N > orbit.n_max:
        raise HorizonExceeded(f"N={N} beyond orbit horizon {orbit.n_max}")
    if N > store.horizon:
        raise HorizonExceeded(f"N={N} beyond store horizon {store.horizon}")
    return _running_sum(orbit.at(store.elements[:store.count_range(0, N)]))


def subseq_average(orbit: Orbit, store: SequenceStore, N: int):
    """A(f, x, N): average of f over the orbit at the sequence points < N."""
    pref = _orbit_sum(orbit, store, N)
    return _mean(pref, pref.size - 1)


def subseq_max(orbit: Orbit, store: SequenceStore, n_max: int):
    """sup over 1 <= N <= n_max of |A(f, x, N)|."""
    pref = _orbit_sum(orbit, store, n_max)
    k_top = pref.size - 1
    if k_top == 0:
        return _mean(pref, 0)
    ratio = np.abs(pref[1:]) / np.arange(1, k_top + 1)
    if pref.dtype.kind != "i":
        return ratio.max().item()       # each |mean| is its float quotient
    # |pref[k]| / k is each |mean| rounded at most twice (an int64 sum past
    # 2^53, then the quotient), so it can invert two means' order by a
    # relative 2^-51 at most: the exact means of the k within 2^-50 of the
    # float maximum decide.  They are compared in integers, by the floor
    # of |pref[k]| / k, then by its remainder r over k: r/k > r0/k0 iff
    # r*k0 > r0*k, products taken as Python ints
    near = np.flatnonzero(ratio >= ratio.max() * (1 - 2.0 ** -50)) + 1
    floor, rem = np.divmod(np.abs(pref[near]), near)
    top = floor == floor.max()
    near, rem = near[top].astype(object), rem[top].astype(object)
    k = 0
    # step to the largest float remainder quotient among the k that beat
    # the current one exactly, until none does
    while (better := np.flatnonzero(rem * near[k] > rem[k] * near)).size:
        k = better[np.argmax(rem[better] / near[better])]
    return abs(_mean(pref, int(near[k])))


def default_checkpoints(store: SequenceStore) -> list[int]:
    """Block boundaries plus 24 log-spaced horizons, deduplicated, sorted."""
    marks = set(store.betas[1:])
    lo, hi = 1, store.horizon
    for i in range(24):
        marks.add(int(round(lo * (hi / lo) ** (i / 23))))
    return sorted(m for m in marks if 1 <= m <= hi)


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    average: float
    deviation: float
    block_m: int


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    final_deviation: float
    trend_slope: float | None     # slope of log|dev| against log N

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("N,A,deviation,block_m\n")
            for r in self.rows:
                fh.write(f"{r.N},{r.average!r},{r.deviation!r},{r.block_m}\n")


def convergence_report(orbit: Orbit, store: SequenceStore,
                       checkpoints=None) -> ConvergenceReport:
    if checkpoints is None:
        checkpoints = default_checkpoints(store)
    checkpoints = sorted(set(int(c) for c in checkpoints))
    pref = _orbit_sum(orbit, store, checkpoints[-1] if checkpoints else 0)
    mean = float(orbit.mean_true)
    rows = []
    for N in checkpoints:
        # float(Fraction(p, k)) and float(p) / k round the same quotient once
        a = float(_mean(pref, store.count_range(0, N)))
        rows.append(ConvergenceRow(N, a, abs(a - mean), store.block_of(N - 1)))
    devs = [(math.log(r.N), math.log(r.deviation)) for r in rows if r.deviation > 0]
    slope = None
    if len(devs) >= 2:
        xs, ys = zip(*devs)
        xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
        den = sum((x - xbar) ** 2 for x in xs)
        if den > 0:
            slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
    return ConvergenceReport(tuple(rows), rows[-1].deviation if rows else 0.0,
                             slope)


# ---------------------------------------------------------------------------
# threshold decomposition against a ledger

@dataclass(frozen=True)
class Decomposition:
    """Per-block threshold split of the scaled observable values.

    parts[m][v] = (low, mid, high): exactly one is v/lam' (the scaled value),
    the others 0; low is active when the scaled value is below the count
    through block m-3, high when at or above the count through block m.
    """

    lam_prime: Fraction
    values: tuple[Fraction, ...]
    parts: dict

    def check_identity(self) -> bool:
        return all(
            sum(self.parts[m][v]) == v / self.lam_prime
            for m in self.parts for v in self.values
        )


def decompose(values, ledger: Ledger, lam) -> Decomposition:
    """Split each observable value by the ledger's cumulative-count thresholds."""
    lam = F(lam)
    if lam <= 0:
        raise BadSpec("lambda must be positive")
    lamp = lam / 3
    vals = tuple(sorted(set(F(v) for v in values)))
    if any(v < 0 for v in vals):
        raise BadSpec("threshold decomposition expects nonnegative values")
    parts = {}
    for m in range(1, ledger.complete_horizon + 1):
        low_thr = ledger.nb(m - 3)
        high_thr = ledger.nb(m)
        table = {}
        for v in vals:
            s = v / lamp
            if s < low_thr:
                table[v] = (s, F(0), F(0))
            elif s < high_thr:
                table[v] = (F(0), s, F(0))
            else:
                table[v] = (F(0), F(0), s)
        parts[m] = table
    return Decomposition(lamp, vals, parts)


# ---------------------------------------------------------------------------
# towers and the transfer identity

@dataclass(frozen=True)
class Tower:
    P: int
    height: int
    base: np.ndarray        # base residues, one per column

    @property
    def covered(self) -> Fraction:
        return F(len(self.base) * self.height, self.P)


def build_tower(P: int, height: int, eps: Fraction) -> Tower:
    """Columns of consecutive residues: base at multiples of the height."""
    if not 1 <= height <= P:
        raise BadSpec("height must lie in [1, P]")
    if not 0 < F(eps) < 1:
        raise BadSpec("eps must lie in (0, 1)")
    cols = P // height
    tower = Tower(P, height, np.arange(cols, dtype=np.int64) * height)
    if tower.covered <= 1 - F(eps):
        raise BadSpec(
            f"height {height} cannot cover 1-eps of Z_{P}; covered {tower.covered}")
    return tower


def dynamical_window(x_residue_mod_p: int, p: int, N: int) -> tuple[int, int]:
    """Offset window of the orbit operator: [-r, floor((N+r)/p)*p + p - r)."""
    r = x_residue_mod_p
    return -r, ((N + r) // p) * p + p - r


def dynamical_mean(system: CyclicSystem, x: int, r: int, ctx: GridContext,
                   N: int, j: int | None = None):
    """The orbit-side operator: averages f(T^(l q_j) x) over the window.

    r is the level of x in its tower column reduced mod p (the offset data
    the abstract construction attaches to x).  Implemented independently of
    the grid operators (table lookups on Z_P) so the transfer identity is a
    genuine two-route check.
    """
    lo, hi = dynamical_window(r, ctx.p, N)
    qs = ctx.primes if j is None else (ctx.primes[j],)
    vals = [system.table[(x + off) % system.P]
            for q in qs for off in range(-(-lo // q) * q, hi, q)]
    return F(sum(vals), len(vals))


def tower_transfer_check(tower: Tower, system: CyclicSystem, ctx: GridContext,
                         trials: int, horizon: int, seed: int) -> dict:
    """Exact equality of the orbit operator and the grid operator.

    Each trial picks a tower column and a level n(x) clear of the top and
    bottom margins, forms the column signal phi(n) = f(T^n base) of length
    the tower height, and compares the grid operator at offset n(x) with the
    dynamical operator at x, per progression and combined, in exact rationals.
    Both routes read `system.table` as given, so a table of floats fails
    with a TypeError instead of passing as some other table.
    """
    p = ctx.p
    if system.P != tower.P:
        raise BadSpec("tower and system disagree on P")
    lo_level, hi_level = p, tower.height - horizon - 2 * p
    if hi_level <= lo_level:
        raise TowerTooShort(
            f"height {tower.height} leaves no levels for horizon {horizon}")
    rng = SplitMix64(seed)
    checked = 0
    mismatches = []
    for _ in range(trials):
        col = rng.randint(0, len(tower.base) - 1)
        level = rng.randint(lo_level, hi_level - 1)
        N = rng.randint(1, horizon)
        base = int(tower.base[col])
        x = (base + level) % system.P
        r = level % p
        phi = FiniteSignal(0, [system.table[(base + k) % system.P]
                               for k in range(tower.height)])
        routes = [(progression_mean_j(phi, ctx, level, N, j),
                   dynamical_mean(system, x, r, ctx, N, j)) for j in range(ctx.K)]
        routes.append((progression_mean(phi, ctx, level, N),
                       dynamical_mean(system, x, r, ctx, N)))
        checked += 1
        if any(grid != dyn for grid, dyn in routes):
            mismatches.append({"col": col, "level": level, "N": N})
    return {"trials": checked, "exact_matches": checked - len(mismatches),
            "mismatches": mismatches, "ok": not mismatches}
