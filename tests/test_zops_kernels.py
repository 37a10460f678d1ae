"""The batched float kernels of primegrid.zops against their row-at-a-time
oracles: equal to the last bit (==, never approx), on the battery grids."""

from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import polygamma

from _oracles import (
    as_floats,
    deviation_lhs_by_residue,
    lattice_table,
    strong_l2_lhs_by_n,
    sup_profile_by_residue,
    sup_sq_tail_row,
    sweep_rows,
    window_count_by_n,
    window_count_exact,
)
from primegrid import zbattery, zops
from primegrid.rng import SplitMix64, derive_seed
from primegrid.zbattery import L2_CONTEXTS, WEAK_CONTEXTS, random_signal
from primegrid.zops import (
    FiniteSignal,
    GridContext,
    _lattice_tables,
    deviation_sup_l2_bound,
    deviation_sup_l2_bound_batch,
    level_count_progression_sup,
    level_count_progression_sup_batch,
    level_count_window_sup,
    level_count_window_sup_batch,
    strong_l2_window_sup,
    strong_l2_window_sup_batch,
    sup_profile,
    sup_sq_tail,
)

GRIDS = sorted(set(WEAK_CONTEXTS) | set(L2_CONTEXTS))


def _signals(primes, count=12):
    """Seeded battery-style float signals plus one-sample edge signals."""
    ctx = GridContext(primes)
    rng = SplitMix64(derive_seed(2024, "kernels", primes))
    sigs = [random_signal(rng, min(ctx.p, 64)) for _ in range(count)]
    sigs.append(FiniteSignal(-ctx.p - 1, [2.5]))
    sigs.append(FiniteSignal(3, [-0.75]))
    return ctx, sigs


@pytest.fixture(params=[None, 7, 200],
                ids=["one-block", "small-blocks", "small-groups"])
def block_entries(request, monkeypatch):
    """Run each kernel in its default blocks, in many tiny row blocks with
    every signal in a group of its own, and in small blocks and groups."""
    if request.param is not None:
        monkeypatch.setattr(zops, "_BLOCK_ENTRIES", request.param)
    return request.param


@pytest.mark.parametrize("absolute", [True, False])
@pytest.mark.parametrize("skip", [False, True])
def test_sweep_takes_each_rows_own_window_lengths(absolute, skip):
    # rows of mixed widths in one call, starts left of the table and windows
    # past its end (both clipped), N = 1 left out of some rows, and a signed
    # row whose every average is negative: there a longer window than the
    # row's own would give a larger (less negative) value, which must not
    # count
    rng = np.random.default_rng(2024)
    end = 9
    table = np.zeros((5, end + 1))
    table[:4, 1:] = np.cumsum(rng.integers(-6, 7, size=(4, end)) / 4, axis=1)
    table[4] = -1.5 * np.arange(end + 1)
    n = 600
    row0 = rng.integers(0, 5, n) * (end + 1)
    start = rng.integers(-5, end + 1, n)
    widths = rng.integers(1, 14, n)
    skip_first = None
    if skip:
        skip_first = rng.random(n) < 0.3
        widths[skip_first] = np.maximum(widths[skip_first], 2)
    got = zops._sweep(table.ravel(), row0, start, widths, end, absolute,
                      skip_first)
    want = sweep_rows(table.ravel(), row0, start, widths, end, absolute,
                      skip_first)
    assert got.tolist() == want
    if not absolute:
        assert (got < 0).any()
    one = zops._sweep(table.ravel(), row0[:1], start[:1], widths[:1], end,
                      absolute, None if skip_first is None else skip_first[:1])
    assert one.tolist() == want[:1]


@pytest.mark.parametrize("primes", GRIDS)
def test_sup_profile_equals_residue_loop(primes, block_entries):
    ctx, sigs = _signals(primes)
    for sig in sigs:
        blk_lo = (ctx.t(sig.lo) - 1) * ctx.p
        n_lo, n_hi = blk_lo - 3 * ctx.p - 2, sig.hi + 2 * ctx.p + 3
        n = np.arange(n_lo, n_hi + 1)
        # rows at r = p - 1 and rows left of the support (negative j0)
        assert (n % ctx.p == ctx.p - 1).any() and (n < blk_lo).any()
        for kind in ("plus", "minus"):
            fast = sup_profile(_lattice_tables([sig], ctx, kind), ctx, n_lo, n_hi)
            assert np.array_equal(
                fast, sup_profile_by_residue(sig, ctx, n_lo, n_hi, kind))


@pytest.mark.parametrize("primes", GRIDS)
def test_check_results_equal_row_loops(primes, block_entries):
    ctx, sigs = _signals(primes)
    rng = SplitMix64(derive_seed(2024, "lambda", primes))
    for sig in sigs:
        lam = (0.02 + 1.4 * rng.uniform()) * sig.l1
        res = level_count_progression_sup(sig, ctx, lam)
        n_lo, n_hi = res["window"]
        profile = sup_profile_by_residue(sig, ctx, n_lo, n_hi, "plus")
        assert res["count"] == int(np.sum(profile > lam))
        assert deviation_sup_l2_bound(sig, ctx)["lhs"] == \
            deviation_lhs_by_residue(sig, ctx)


def test_window_kernels_equal_per_n_loops(block_entries):
    rng = SplitMix64(derive_seed(2024, "windows"))
    sigs = [random_signal(rng, 12) for _ in range(40)]
    sigs += [FiniteSignal(0, [1.0]), FiniteSignal(-4, [-3.0]),
             FiniteSignal(2, [-1.0, -2.0, -0.5])]      # sup <= 0 everywhere
    for sig in sigs:
        lam = (0.02 + 1.4 * rng.uniform()) * sig.l1
        assert level_count_window_sup(sig, lam)["count"] == \
            window_count_by_n(sig, lam)
        assert strong_l2_window_sup(sig)["lhs"] == strong_l2_lhs_by_n(sig)


def test_batches_equal_signals_alone(block_entries):
    # every context, length-1 signals and supports left of 0: each result of
    # a mixed batch is the one its signal gives alone, to the last bit
    rng = SplitMix64(derive_seed(2024, "batches"))
    for primes in GRIDS:
        ctx, sigs = _signals(primes)
        sigs.insert(3, FiniteSignal(-2 * ctx.p - 5, [0.0, -1.5, 4.0]))
        lams = [(0.02 + 1.4 * rng.uniform()) * sig.l1 for sig in sigs]
        assert level_count_progression_sup_batch(sigs, ctx, lams) == \
            [level_count_progression_sup(s, ctx, lam) for s, lam in zip(sigs, lams)]
        assert deviation_sup_l2_bound_batch(sigs, ctx) == \
            [deviation_sup_l2_bound(s, ctx) for s in sigs]
    sigs = [random_signal(rng, 12) for _ in range(30)]
    sigs[5:5] = [FiniteSignal(-7, [2.0]), FiniteSignal(0, [-0.25]),
                 FiniteSignal(-40, [-1.0, -2.0, -0.5])]   # sup <= 0 everywhere
    lams = [(0.02 + 1.4 * rng.uniform()) * sig.l1 for sig in sigs]
    assert level_count_window_sup_batch(sigs, lams) == \
        [level_count_window_sup(s, lam) for s, lam in zip(sigs, lams)]
    assert strong_l2_window_sup_batch(sigs) == \
        [strong_l2_window_sup(s) for s in sigs]


@pytest.mark.parametrize("primes", L2_CONTEXTS)
def test_sup_sq_tail_rows_equal_scalar_calls(primes, block_entries):
    ctx, sigs = _signals(primes)
    for sig in sigs:
        S = lattice_table(sig, ctx, "minus")[2][:, 1:]
        # residues whose row is all <= 0 keep no hyperbola
        S = np.vstack([S, -S, np.zeros_like(S)])
        for k_start in (-1, 0, 1, 3):
            rows = sup_sq_tail(S, k_start)
            assert rows.shape == (S.shape[0],)
            assert rows.tolist() == [sup_sq_tail_row(s, k_start) for s in S]
            for s in S[:3]:
                assert sup_sq_tail(s[None], k_start)[0] == \
                    sup_sq_tail_row(s, k_start)


def test_sup_sq_tail_short_and_long_rows(block_entries):
    # finite parts of 0 to 11 terms and of 20, 50 and 300 in one array.  Two
    # kept hyperbolas at c = 1, 2 cross at x exactly when S_2/S_1 is
    # (2 + x)/(1 + x), which puts k_star at k_start + L for x just under it.
    # The later columns repeat the row maximum (a tie, not kept), hold a
    # smaller positive value (not kept) or are <= 0; the last rows are
    # <= 0 throughout and keep nothing
    rng = SplitMix64(derive_seed(2024, "tail-lengths"))
    for k_start in (0, 1, 3):
        lengths = list(range(12)) + [20, 50, 300]
        S = []
        for L in lengths:
            x = k_start + L - 0.5
            s1 = 1.0 + rng.uniform()
            s2 = s1 * (2.0 + x) / (1.0 + x)
            cross = (s1 * 2 - s2) / (s2 - s1)
            assert int(np.floor(cross)) + 1 == k_start + L
            S.append([s1, s2, s2, 0.5 * s1, -1.0, 0.0])
            S.append([s1, s2, 0.25 * s2, s2, 0.0, -2.0])
        S += [[-1.0, 0.0, -2.0, 0.0, -0.5, -3.0], [0.0] * 6]
        S = np.array(S)
        assert sup_sq_tail(S, k_start).tolist() == \
            [sup_sq_tail_row(s, k_start) for s in S]


def test_sup_sq_tail_cap_branch(block_entries, monkeypatch):
    # near-equal heights cross far out, so a small cap cuts the finite part
    S = np.array([[1.0, 1.0 + 2.0 ** -20, 3.0],
                  [0.5, 2.0, 2.0 + 2.0 ** -12],
                  [4.0, 1.0, 0.0],
                  [-1.0, -2.0, -3.0]])
    exact = sup_sq_tail(S, 1)
    for cap in (0, 2, 5, 200_000):
        monkeypatch.setattr(zops, "_TAIL_CAP", cap)
        assert sup_sq_tail(S, 1).tolist() == \
            [sup_sq_tail_row(s, 1, cap=cap) for s in S]
    # row 1 crosses at k = 8190: exact under the default cap, over-bounded
    # under a small one
    monkeypatch.setattr(zops, "_TAIL_CAP", 2)
    assert sup_sq_tail(S, 1)[1] > exact[1]


def test_zeta2_port_matches_scipy_polygamma():
    # polygamma(1, q) is cephes zeta(2, q) times exactly 1; the port must give
    # the same double, not a close one
    rng = SplitMix64(derive_seed(2024, "zeta2"))
    qs = [float(q) for q in range(1, 5001)]
    qs += [float(rng.randint(1, 10 ** 12)) for _ in range(3000)]
    # the asymptotic form starts strictly above 1e8
    qs += [float(q) for q in range(10 ** 8 - 50, 10 ** 8 + 51)]
    # small non-integers: the Bernoulli sum stops after its 6th to 8th term
    qs += [1.0 + 19.0 * rng.uniform() for _ in range(3000)]
    # below about 1e-8 the direct terms stop at once
    qs += [1e-9 * (1.0 + 9.0 * rng.uniform()) for _ in range(50)]
    got = [zops._zeta2(q) for q in qs]
    want = polygamma(1, np.array(qs)).tolist()
    bad = [(q, g, w) for q, g, w in zip(qs, got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(qs)} differ, first {bad[0]}"
    # the memoised port returns what the port computes, from its cache too
    assert got == [zops._zeta2.__wrapped__(q) for q in qs]
    hits = zops._zeta2.cache_info().hits
    assert [zops._zeta2(q) for q in qs[-1000:]] == got[-1000:]
    assert zops._zeta2.cache_info().hits == hits + 1000


def test_window_count_float_matches_exact():
    rng = SplitMix64(derive_seed(2024, "window-exact"))
    for _ in range(40):
        draw = random_signal(rng, 6)
        sig = FiniteSignal(draw.lo, [F(v) for v in draw.values])
        lam = F(rng.randint(1, 24), (1, 2, 3, 4, 8)[rng.randint(0, 4)])
        exact = window_count_exact(sig, lam)
        fast = level_count_window_sup(as_floats(sig), float(lam))["count"]
        assert fast == exact
    # a level equal to an attained average is not exceeded on either path
    sig = FiniteSignal(0, [F(3), F(-1), F(2)])
    for lam in (F(3), F(2), F(4, 3), F(1)):
        assert window_count_exact(sig, lam) == \
            level_count_window_sup(as_floats(sig), float(lam))["count"]


def test_float_power_squares_as_python_floats(monkeypatch):
    # the kernels square sups and row maxima with np.float_power(x, 2.0),
    # taken to be libm pow as Python's float ** 2 is; np.square and
    # np.power round some of these products the other way.  Every squared
    # array of a battery run (the s_max rows of each L2_CONTEXTS grid and of
    # the strong bound, and the strong-bound sups) and 10^5 random doubles
    # must square alike, or no recorded digest can hold
    squared = []
    float_power = np.float_power

    def spy(x, y, *args, **kwargs):
        squared.append(np.array(x, dtype=float))
        return float_power(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "float_power", spy)
    calls = {}
    for name in ("battery_deviation_l2", "battery_window_strong"):
        before = len(squared)
        getattr(zbattery, name)(20250809, 250)
        calls[name] = len(squared) - before
    # deviation squares one s_max array per grid group; strong also squares
    # its sups
    assert calls["battery_deviation_l2"] >= len(L2_CONTEXTS)
    assert calls["battery_window_strong"] >= 2
    monkeypatch.undo()
    rng = np.random.default_rng(20250809)
    squared.append(rng.standard_normal(10**5)
                   * 10.0 ** rng.integers(-8, 9, size=10**5))
    for x in squared:
        assert np.float_power(x, 2.0).tolist() == [v ** 2 for v in x.tolist()]
