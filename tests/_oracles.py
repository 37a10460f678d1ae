"""Independent brute-force oracles shared by the test modules.

`oracle_block` deliberately re-derives block contents from the literal rule
text with a different algorithm family (per-point bisection over sorted
member lists) than the library's vectorized residue arithmetic.  The float
kernel oracles below evaluate one row at a time what the library evaluates
as one array operation, and `window_count_exact` counts levels by brute
force in exact arithmetic.  `dense_orbit` walks an orbit step by step, where
the library evaluates it only at the positions asked for.

`rotation_at` evaluates a rotation orbit one position at a time with Python's
128-bit integers, where the library works in pairs of uint64 words.

`banach_density_all_starts` counts the window at every element start,
where the library prunes whole buckets of starts.

The `battery_*_by_trial` loops draw each trial through `random_signal`,
one `randint` at a time, where the library draws a context's trials as one
array, and check it through the per-signal kernels, where the library
checks each battery's signals as one batch.

Helpers that only the tests call live here too: `block_elements`, one
block's survivor sets merged into a sorted array; `fragile_positions`, which
marks orbit points too close to a breakpoint to trust at 128 bits; `nk` and
`nbar_block`, a store's k-th element and its count below beta_m; and
`as_floats`, a signal's values in binary64.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import numpy as np
from scipy.special import polygamma

from primegrid.blocksets import survivors_by_progression
from primegrid.dynsim import (
    FIXED_BITS,
    BernoulliSystem,
    CyclicSystem,
    RotationSystem,
    _x0_fixed,
)
from primegrid.rng import SplitMix64, derive_seed, index_u64
from primegrid.zbattery import (
    L2_CONTEXTS,
    WEAK_CONTEXTS,
    random_signal,
    shrink_signal,
    signal_json,
)
from primegrid.zops import (
    FiniteSignal,
    GridContext,
    Signals,
    _lattice_tables,
    deviation_sup_l2_bound,
    level_count_progression_sup,
    level_count_window_sup,
    strong_l2_window_sup,
)


def oracle_block(moduli, d, lo, hi):
    """Survivors of [lo, hi): a member dies when a member of a different
    progression inside the block lies within distance d."""
    members = {q: [n for n in range(lo, hi) if n % q == 0] for q in moduli}
    out = set()
    for q in moduli:
        for n in members[q]:
            doomed = False
            for qp in moduli:
                if qp == q:
                    continue
                arr = members[qp]
                if not arr:
                    continue
                i = bisect_left(arr, n)
                for k in (i - 1, i):
                    if 0 <= k < len(arr) and abs(arr[k] - n) <= d:
                        doomed = True
                        break
                if doomed:
                    break
            if not doomed:
                out.add(n)
    return sorted(out)


def block_elements(primes, d, lo, hi):
    """Sorted survivor set of the block [lo, hi), by the library's kernel."""
    return np.sort(np.concatenate(survivors_by_progression(primes, d, lo, hi)))


def banach_density_all_starts(store, L):
    """Max over windows [a, a+L) within [0, beta_M) of count/L, counting the
    window at every element start up to beta_M - L and the last window."""
    elems, last = store.elements, store.horizon - L
    k = int(np.searchsorted(elems, last, side="right"))
    hi = np.searchsorted(elems, elems[:k] + L, side="left")
    best = int((hi - np.arange(k)).max(initial=0))
    return F(max(best, store.count_range(last, store.horizon)), L)


def gap_profile_whole(store):
    """gap_profile from one np.diff of the whole sequence."""
    out = []
    gaps = np.diff(store.elements)
    for m in range(1, store.n_blocks + 1):
        lo = int(store.offsets[m - 1])
        upper = min(int(store.offsets[m]), gaps.size)
        if upper <= lo:
            continue
        j = int(np.argmin(gaps[lo:upper]))
        out.append((m, lo + j + 1, int(gaps[lo + j])))
    return out


def nbar_block(store, m):
    """Count of the store's elements below beta_m."""
    return int(store.offsets[m])


def nk(store, k):
    """The store's k-th element, 1-indexed."""
    if not 1 <= k <= store.total:
        raise IndexError(k)
    return int(store.elements[k - 1])


def as_floats(sig):
    """The signal with its values converted to binary64."""
    return FiniteSignal(sig.lo, [float(v) for v in sig.values])


# ---------------------------------------------------------------------------
# row-at-a-time forms of the batched float kernels in primegrid.zops: one
# residue, one n or one hyperbola row per step.  The batched kernels must
# agree with these to the last bit.

def lattice_table(sig, ctx, kind):
    """The library's lattice tables of one signal: (blk_lo, T, CH)."""
    blk_lo, T, CH = _lattice_tables(Signals.of([sig]), ctx, kind)
    return int(blk_lo[0]), int(T[0]), CH[0]


def sup_profile_by_residue(sig, ctx, n_lo, n_hi, kind):
    """Float progression suprema on [n_lo, n_hi], one residue class at a time."""
    p = ctx.p
    blk_lo, T, CH = lattice_table(sig, ctx, kind)
    out = np.empty(n_hi - n_lo + 1)
    for r in range(p):
        first = n_lo + ((r - n_lo) % p)
        if first > n_hi:
            continue
        rows = (n_hi - first) // p + 1
        j0s = (first - blk_lo - r) // p + np.arange(rows)
        npmin = 2 if r == p - 1 else 1
        npmax = max(T - int(j0s[0]), npmin)
        Nps = np.arange(npmin, npmax + 1)
        base = CH[r, np.clip(j0s, 0, T)]
        hi_idx = np.clip(j0s[:, None] + Nps[None, :], 0, T)
        vals = np.abs(CH[r, hi_idx] - base[:, None]) / Nps[None, :]
        out[(first - n_lo) + np.arange(rows) * p] = vals.max(axis=1)
    return out


def sweep_rows(flat, row0, start, widths, end, absolute=True):
    """The window routes' supremum, one row and one window length at a time:
    per row i the maximum over exactly N = 1..widths[i] of (table[c + N] -
    table[c]) / N, its absolute value if `absolute`, on the table row at
    flat[row0[i]:] with c = start[i] and indices clipped to [0, end]."""
    out = []
    for i, width in enumerate(widths.tolist()):
        row = flat[row0[i]:row0[i] + end + 1].tolist()
        c = int(start[i])
        base = row[min(max(c, 0), end)]
        best = -np.inf
        for N in range(1, width + 1):
            v = (row[min(max(c + N, 0), end)] - base) / N
            best = max(best, abs(v) if absolute else v)
        out.append(best)
    return out


def prune_hyperbolas(S):
    """Keep (c, S_c) pairs not dominated by an earlier (smaller-c) value."""
    kept = []
    best = 0.0
    for c, s in enumerate(S, start=1):
        if s > best:
            kept.append((c, float(s)))
            best = float(s)
    return kept


def sup_sq_tail_row(S, k_start, cap=200_000):
    """Scalar hyperbola-tail sum for one row S_1..S_C."""
    kept = prune_hyperbolas(np.asarray(S, dtype=float))
    if not kept or k_start < 0:
        return 0.0
    k_star = k_start
    for (c1, s1), (c2, s2) in zip(kept, kept[1:]):
        cross = (s1 * c2 - s2 * c1) / (s2 - s1)
        k_star = max(k_star, int(np.floor(cross)) + 1)
    exact_beyond = True
    if k_star - k_start > cap:
        k_star = k_start + cap
        exact_beyond = False
    total = 0.0
    if k_star > k_start:
        ks = np.arange(k_start, k_star, dtype=float)
        grid = np.max([s / (ks + c) for c, s in kept], axis=0)
        total += float(np.sum(grid ** 2))
    if exact_beyond:
        c_last, s_last = kept[-1]
        total += s_last ** 2 * float(polygamma(1, k_star + c_last))
    else:
        c_min = kept[0][0]
        s_max = kept[-1][1]
        total += s_max ** 2 * float(polygamma(1, k_star + c_min))
    return total


def deviation_lhs_by_residue(sig, ctx):
    """Summed squared deviation suprema with one tail per residue."""
    p = ctx.p
    blk_lo, T, CH = lattice_table(sig, ctx, "minus")
    lhs = float(np.sum(sup_profile_by_residue(
        sig, ctx, blk_lo, blk_lo + T * p - 1, "minus") ** 2))
    for r in range(p):
        lhs += sup_sq_tail_row(CH[r][1:], k_start=1)
    return lhs


def window_count_by_n(sig, lam, l1=None):
    """Float level count of the two-sided window supremum, one n at a time,
    over the scan window that l1 (the signal's by default) sets."""
    l1 = sig.l1 if l1 is None else l1
    W = int(np.ceil(float(l1) / lam)) + 1
    vals = np.array([float(v) for v in sig.values])
    P = np.concatenate([[0.0], np.cumsum(vals)])
    count = 0
    for n in range(sig.lo - W, sig.hi + 1):
        Ns = np.arange(1, sig.hi - n + 2)
        idx = np.clip(n + Ns - sig.lo, 0, len(vals))
        base = np.clip(n - sig.lo, 0, len(vals))
        sup = np.max(np.abs(P[idx] - P[base]) / Ns)
        if sup > float(lam):
            count += 1
    return count


def far_count_by_k(S, lam, chunk=1 << 20):
    """#{k >= 1 : max_c |S_c| / (k + c) > lam} for rational S_1..S_C and
    lam, one start k at a time: |S_c| v > u (k + c) for lam = u/v, in
    int64 over every k up to max_c |S_c| / lam."""
    lam = F(lam)
    S = [abs(F(s)) for s in S]
    K = max(int(s / lam) for s in S)
    nums = [s.numerator * lam.denominator for s in S]
    dens = [s.denominator * lam.numerator for s in S]
    assert max(nums + dens) * (K + len(S) + 1) < 2 ** 62
    count = 0
    for k0 in range(1, K + 1, chunk):
        k = np.arange(k0, min(k0 + chunk, K + 1), dtype=np.int64)
        above = np.zeros(k.size, dtype=bool)
        for c, (a, b) in enumerate(zip(nums, dens), start=1):
            above |= a > b * (k + c)
        count += int(above.sum())
    return count


def far_count_exact(S, lam):
    """The same count in closed form: k + c < |S_c| / lam, so each c gives
    the starts 1..ceil(|S_c| / lam) - 1 - c."""
    lam = F(lam)
    return max([0] + [-(-abs(F(s)) // lam) - 1 - c
                      for c, s in enumerate(S, start=1)])


def window_count_exact(sig, lam):
    """Level count of the two-sided window supremum by brute force: every n
    of the lossless scan window, every window length N, in the arithmetic of
    the signal and the level (exact for Fractions)."""
    W = int(-(-sig.l1 // lam)) + 1
    count = 0
    for n in range(sig.lo - W, sig.hi + 1):
        best, acc = 0, 0
        for N in range(1, sig.hi - n + 2):
            acc = acc + sig(n + N - 1)
            best = max(best, abs(F(acc, N)))
        if best > lam:
            count += 1
    return count


def strong_l2_lhs_by_n(sig):
    """l2 norm of the one-sided window supremum, one n at a time."""
    vals = np.array([float(v) for v in sig.values])
    P = np.concatenate([[0.0], np.cumsum(vals)])
    lhs_sq = 0.0
    for n in range(sig.lo - 1, sig.hi):
        Ns = np.arange(1, sig.hi - n + 1)
        idx = np.clip(n + Ns - sig.lo + 1, 0, len(vals))
        base = P[np.clip(n + 1 - sig.lo, 0, len(vals))]
        sup = max(0.0, float(np.max((P[idx] - base) / Ns)))
        lhs_sq += sup ** 2
    lhs_sq += sup_sq_tail_row(P[1:], k_start=1)
    return lhs_sq ** 0.5


# ---------------------------------------------------------------------------
# the inequality batteries one trial at a time

def _record(test, ctx_primes, seed, trial, lhs, rhs, ok, extra=None):
    """A trial's record dict, as the batteries define it."""
    rec = {
        "test": test,
        "ctx": list(ctx_primes) if ctx_primes else None,
        "seed": seed,
        "trial": trial,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "ratio": float(lhs) / float(rhs) if rhs else None,
        "pass": bool(ok),
    }
    if extra:
        rec.update(extra)
    return rec


def battery_window_weak_by_trial(base_seed, trials):
    out = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "window_weak", trial)
        rng = SplitMix64(seed)
        sig = random_signal(rng, 12)
        lam = (0.02 + 1.4 * rng.uniform()) * sig.l1
        res = level_count_window_sup(sig, lam)
        rec = _record("window_weak", None, seed, trial,
                      res["count"], res["bound"], res["ok"],
                      {"lambda": float(lam)})
        if not res["ok"]:
            bad = shrink_signal(
                sig, lambda s: not level_count_window_sup(s, lam)["ok"])
            rec["counterexample"] = signal_json(bad)
        out.append(rec)
    return out


def battery_window_strong_by_trial(base_seed, trials):
    out = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "window_strong", trial)
        rng = SplitMix64(seed)
        sig = random_signal(rng, 12)
        res = strong_l2_window_sup(sig)
        rec = _record("window_strong", None, seed, trial,
                      res["lhs"], res["rhs"], res["ok"])
        if not res["ok"]:
            bad = shrink_signal(sig, lambda s: not strong_l2_window_sup(s)["ok"])
            rec["counterexample"] = signal_json(bad)
        out.append(rec)
    return out


def battery_progression_weak_by_trial(base_seed, trials):
    out = []
    per_ctx = -(-trials // len(WEAK_CONTEXTS))
    for primes in WEAK_CONTEXTS:
        ctx = GridContext(primes)
        for trial in range(per_ctx):
            seed = derive_seed(base_seed, "progression_weak", primes, trial)
            rng = SplitMix64(seed)
            sig = random_signal(rng, ctx.p)
            lam = (0.02 + 1.4 * rng.uniform()) * sig.l1
            res = level_count_progression_sup(sig, ctx, lam)
            rec = _record("progression_weak", primes, seed, trial,
                          res["count"], res["bound"], res["ok"],
                          {"lambda": float(lam)})
            if not res["ok"]:
                bad = shrink_signal(
                    sig,
                    lambda s: not level_count_progression_sup(s, ctx, lam)["ok"])
                rec["counterexample"] = signal_json(bad)
            out.append(rec)
    return out


def battery_deviation_l2_by_trial(base_seed, trials):
    out = []
    per_ctx = -(-trials // len(L2_CONTEXTS))
    for primes in L2_CONTEXTS:
        ctx = GridContext(primes)
        for trial in range(per_ctx):
            seed = derive_seed(base_seed, "deviation_l2", primes, trial)
            rng = SplitMix64(seed)
            sig = random_signal(rng, min(ctx.p, 64))
            res = deviation_sup_l2_bound(sig, ctx)
            rec = _record("deviation_l2", primes, seed, trial,
                          res["lhs"], res["rhs"], res["ok"],
                          {"ratio_ok_ctx": ctx.ratio_ok})
            if not res["ok"]:
                bad = shrink_signal(
                    sig, lambda s: not deviation_sup_l2_bound(s, ctx)["ok"])
                rec["counterexample"] = signal_json(bad)
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# dense orbits: f(T^n x0) for every n in [0, n_max), one step at a time

def rotation_at(system, x0, positions, observable):
    """f(T^n x0) on a rotation at each n of `positions`: one 128-bit multiply
    and one bisection per position."""
    thr = observable.thresholds_fixed()
    ints = all(v.denominator == 1 for v in observable.values)
    pieces = [int(v) if ints else float(v) for v in observable.values]
    x0f = _x0_fixed(x0)
    mask = (1 << FIXED_BITS) - 1
    vals = [pieces[bisect_right(thr, (x0f + n * system.alpha_fixed) & mask) - 1]
            for n in positions]
    return np.array(vals, dtype=np.int64 if ints else np.float64)


def dense_orbit(system, x0, n_max, observable=None):
    """Observable values along the whole orbit prefix, by iterating T.

    A rotation adds the fixed-point angle once per step (the library
    multiplies it by n), a cyclic system steps its residue, and a Bernoulli
    stream draws the scalar splitmix64 output of every index.
    """
    if isinstance(system, RotationSystem):
        one = 1 << FIXED_BITS
        x0 = F(x0)
        cur = (x0.numerator << FIXED_BITS) // x0.denominator
        thr = observable.thresholds_fixed()
        ints = all(v.denominator == 1 for v in observable.values)
        pieces = [int(v) if ints else float(v) for v in observable.values]
        out = np.empty(n_max, dtype=np.int64 if ints else np.float64)
        for n in range(n_max):
            out[n] = pieces[bisect_right(thr, cur) - 1]
            cur = (cur + system.alpha_fixed) % one
        return out
    if isinstance(system, CyclicSystem):
        table = system.table_array
        out = np.empty(n_max, dtype=table.dtype)
        r = int(x0) % system.P
        for n in range(n_max):
            out[n] = table[r]
            r = (r + 1) % system.P
        return out
    if isinstance(system, BernoulliSystem):
        thr = system.threshold
        return np.array([1 if index_u64(system.seed, n) < thr else 0
                         for n in range(n_max)], dtype=np.int64)
    raise TypeError(system)


def fragile_positions(system, x0, positions, observable, tol=F(1, 10**12)):
    """Mask of rotation orbit positions within `tol` of an observable breakpoint.

    Indicator evaluations at such positions are the only ones that could flip
    under a higher-precision angle; tests exclude them.
    """
    one = 1 << FIXED_BITS
    thr = observable.thresholds_fixed()
    tol_fixed = (F(tol).numerator << FIXED_BITS) // F(tol).denominator
    x0f = _x0_fixed(x0)
    out = np.zeros(len(positions), dtype=bool)
    for i, n in enumerate(positions):
        cur = (x0f + int(n) * system.alpha_fixed) & (one - 1)
        for t in thr:
            d = abs(cur - (t & (one - 1)))
            if min(d, one - d) <= tol_fixed:
                out[i] = True
                break
    return out
