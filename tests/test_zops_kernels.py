"""The batched float kernels of primegrid.zops against their row-at-a-time
oracles: equal to the last bit (==, never approx), on the battery grids."""

import itertools
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import polygamma

from _oracles import (
    as_floats,
    deviation_lhs_by_residue,
    far_count_by_k,
    far_count_exact,
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
    Signals,
    _lattice_tables,
    _n_for_nprime,
    deviation_sup_l2_bound,
    deviation_sup_l2_bound_batch,
    level_count_progression_sup,
    level_count_progression_sup_batch,
    level_count_window_sup,
    level_count_window_sup_batch,
    progression_mean,
    progression_mean_sup,
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
def test_frame_sups_match_each_rows_own_window_lengths(absolute):
    # rows of mixed lengths in one frame of running sums, each frozen past
    # its own end, a full row whose first start reaches its maximum only
    # over the whole frame, and a signed row whose every average is
    # negative: there the frame's windows past the row's end give larger
    # (less negative) values than the row's own, which max(., 0) must hide.
    # At every start inside a row the frame equals the row swept to its own
    # end alone, whether every N shifts every row or, the rows longest
    # first, only the rows that reach it
    rng = np.random.default_rng(2024)
    end = 13
    lengths = np.append(rng.integers(1, end + 1, 40), [end, 1, 9])
    P = np.zeros((lengths.size, end + 1))
    for i, L in enumerate(lengths.tolist()):
        P[i, 1:L + 1] = np.cumsum(rng.integers(-6, 7, L) / 4)
        P[i, L + 1:] = P[i, L]
    P[-3, 1:] = 0.0
    P[-3, end] = 1.0
    P[-1, 1:] = -1.5 * np.minimum(np.arange(1, end + 1), 9)
    best = P[:, 1:] - P[:, :-1]
    if absolute:
        np.abs(best, out=best)
    order = np.argsort(-lengths, kind="stable")
    by_len = np.empty_like(best)
    by_len[order] = zops._frame_sups(P[order], best[order], absolute,
                                     lengths[order])
    full = zops._frame_sups(P, best.copy(), absolute)
    for got in (full, by_len):
        assert got.shape == (lengths.size, end)
        for i, L in enumerate(lengths.tolist()):
            c = np.arange(L)
            want = sweep_rows(P.ravel(), np.full(L, i * (end + 1)), c, L - c,
                              end, absolute)
            if absolute:
                assert got[i, :L].tolist() == want, i
            else:
                assert np.maximum(got[i, :L], 0.0).tolist() == \
                    np.maximum(want, 0.0).tolist(), i
        if not absolute:
            want = sweep_rows(P.ravel(), np.full(9, P[:-1].size), np.arange(9),
                              9 - np.arange(9), end, False)
            assert max(want) < 0 and (got[-1, 1:9] > want[1:9]).all()
    # one row alone, in a frame of its own
    one = zops._frame_sups(P[:1], best[:1].copy(), absolute)
    assert np.array_equal(one, full[:1])


@pytest.mark.parametrize("primes", GRIDS)
def test_sup_profile_equals_residue_loop(primes, block_entries):
    # the near zone (j0 in [0, T), r = p - 1 included) of each signal's
    # frame, alone and in a batch of signals of unequal T whose frame is
    # padded past each T.  With test_far_count_equals_residue_loop this
    # covers every n of [blk_lo - 3p - 2, hi + 2p + 3]: right of the near
    # zone the residue loop's supremum is 0, as the padding is
    ctx, sigs = _signals(primes)
    p = ctx.p
    for kind in ("plus", "minus"):
        batch = sup_profile(_lattice_tables(Signals.of(sigs), ctx, kind), ctx)
        assert batch.shape[1:] == (p, max(_T(sig, ctx) for sig in sigs))
        for s, sig in enumerate(sigs):
            blk_lo, T = lattice_table(sig, ctx, kind)[:2]
            alone = sup_profile(_lattice_tables(Signals.of([sig]), ctx, kind),
                                ctx)[0]
            assert alone.shape == (p, T)
            # frame entry [r, j0] is the supremum at n = blk_lo + j0*p + r
            assert np.array_equal(alone.T.ravel(), sup_profile_by_residue(
                sig, ctx, blk_lo, blk_lo + T * p - 1, kind))
            assert np.array_equal(batch[s, :, :T], alone)
            assert not batch[s, :, T:].any()
            assert not sup_profile_by_residue(
                sig, ctx, blk_lo + T * p, sig.hi + 2 * p + 3, kind).any()


def _T(sig, ctx):
    """The number of grid intervals the support of sig meets."""
    return sig.hi // ctx.p - sig.lo // ctx.p + 1


def _ulps(v):
    """v and the doubles one ulp below and above it."""
    return [float(np.nextafter(v, -np.inf)), float(v),
            float(np.nextafter(v, np.inf))]


def _far_signals(ctx):
    """Signals for the far-field counts: the battery-style ones, a negative
    one (every table entry <= 0), one inside a single grid interval (T = 1)
    and one across four (T >= 3); fewer battery-style ones on (5, 7, 11),
    whose residue loop costs most."""
    p = ctx.p
    _, sigs = _signals(ctx.primes, count=6 if p < 100 else 2)
    sigs += [FiniteSignal(-p - 2, [-1.5, -0.25, -3.0]),
             FiniteSignal(2 * p, [0.5, -2.0]),
             FiniteSignal(-p + 1, [1.0, -0.75, 2.5] * p)]
    assert min(map(lambda s: _T(s, ctx), sigs)) == 1
    assert max(map(lambda s: _T(s, ctx), sigs)) >= 3
    return sigs


@pytest.mark.parametrize("primes", GRIDS)
def test_far_count_equals_residue_loop(primes, block_entries):
    # the progression count, far field included, at levels equal to a far
    # value fl(|CH[r, c]| / (k + c)) of residue p - 1 or of the largest
    # last column, and one ulp either side, against the residue loop over
    # the whole scan window
    ctx = GridContext(primes)
    p = ctx.p
    for sig in _far_signals(ctx):
        blk_lo, T, CH = lattice_table(sig, ctx, "plus")
        r_big = int(np.argmax(np.abs(CH[:, T])))
        levels = []
        for r, c, k in ((p - 1, 1, 1), (p - 1, T, 2), (r_big, T, 3)):
            v = abs(CH[r, c]) / (k + c)
            # the oracle's cost grows as the square of the reach
            if v > 0 and sig.l1 * max(primes) / v < 200 * p:
                levels += _ulps(v)
        assert levels or sig.l1 == 0
        for lam in levels:
            res = level_count_progression_sup(sig, ctx, lam)
            n_lo, n_hi = res["window"]
            profile = sup_profile_by_residue(sig, ctx, n_lo, n_hi, "plus")
            assert res["count"] == int(np.sum(profile > lam)), (sig, lam)


def test_far_counts_stop_at_the_scan_windows_left_edge(block_entries):
    # a batch built by hand with l1 understated 8-fold: its scan window is
    # too short to hold every start above the level, so both counts must
    # stop exactly at the window's left edge, as the row loops over the
    # window do
    sig, lam = FiniteSignal(3, [4.0, -1.0, 2.5]), 0.05

    def short(sig):
        return Signals(np.array([sig.lo]), np.array([3]),
                       np.array(sig.values), np.array([sig.l1 / 8]),
                       np.array([sig.bound_M]), np.array([0.0]))

    for primes in WEAK_CONTEXTS:
        ctx = GridContext(primes)
        res = level_count_progression_sup_batch(short(sig), ctx, [lam])
        n_lo, n_hi = res["window"][0]
        want = int(np.sum(sup_profile_by_residue(sig, ctx, n_lo, n_hi, "plus")
                          > lam))
        assert res["count"][0] == want
        assert want < level_count_progression_sup(sig, ctx, lam)["count"]
    want = window_count_by_n(sig, lam, sig.l1 / 8)
    assert level_count_window_sup_batch(short(sig), [lam])["count"][0] == want
    assert want < level_count_window_sup(sig, lam)["count"]


def test_window_far_count_equals_per_n_loop(block_entries):
    # the window count at levels equal to a far value fl(|P_c| / (k + c))
    # and one ulp either side, for signed, negative and one-sample signals
    rng = SplitMix64(derive_seed(2024, "window-far"))
    sigs = [random_signal(rng, 12) for _ in range(8)]
    sigs += [FiniteSignal(-3, [-1.0, -2.0, -0.5]), FiniteSignal(5, [0.75]),
             FiniteSignal(0, [1.0, -1.0, 3.0, -3.0])]
    for sig in sigs:
        P = np.cumsum(sig.values)
        for c in {1, len(P), int(np.argmax(np.abs(P))) + 1}:
            for k in (1, 2, 5):
                v = abs(P[c - 1]) / (k + c)
                for lam in _ulps(v) if v > 0 else ():
                    assert level_count_window_sup(sig, lam)["count"] == \
                        window_count_by_n(sig, lam), (sig, lam)


def test_far_count_takes_each_rows_cap():
    # rows of mixed signs, with ties, zeros, NaN (a column that keeps no
    # start) and infinity (one that keeps all); levels at a row's own values
    # fl(|S_c| / (k + c)) and one ulp either side; caps K below, at and
    # above the uncapped count, which each row reaches before k = 499
    S = np.array([[1.5, -3.0, 2.0, 2.0],
                  [-0.25, -0.25, -4.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [2.0, np.nan, 1.0, 0.5],
                  [0.5, np.inf, -1.0, 0.0],
                  [7.0, 7.0, 7.0, 7.0]])
    rows, C = S.shape
    with np.errstate(invalid="ignore"):
        # the value at start k = 1..499, one division per (k, c)
        vals = np.fmax.reduce(np.abs(S)[:, None, :] / (
            np.arange(1, 500)[:, None] + np.arange(1, C + 1)), axis=2)
    for k, c in ((1, 1), (2, 2), (4, 3), (9, 4)):
        for v in np.abs(S[:, c - 1]) / (k + c):
            for lam in _ulps(v) if 0 < v < np.inf else ():
                above = vals > lam
                assert not above[~np.isinf(S).any(axis=1), -1].any()
                for K in (0, 1, 3, 12, 499):
                    got = zops._far_count(S[:, None], np.full((rows, 1), K),
                                          np.full(rows, lam))
                    assert got.tolist() == above[:, :K].sum(axis=1).tolist()


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


# the shortcut: a level above M + (m + 3) 2^-51 l1 + 2^-1000 counts 0 without
# a sweep (when l1 < 2^1023), with m = L - 1 on the window route and
# max q~ + K + T on the progression route (zops._level_counts).  Constant
# signals make every average M (and their float running sums overshoot it),
# deltas have one nonzero sample, the long signals hold doubles of every
# sign and of magnitudes 1e-8 to 1e8, and one signal is subnormal
def _shortcut_signals():
    rng = np.random.default_rng(2024)
    sigs = [FiniteSignal(0, [0.1] * 37), FiniteSignal(-5, [1 / 3] * 50),
            FiniteSignal(3, [-0.7] * 50), FiniteSignal(-9, [2.5]),
            FiniteSignal(1, [0.0, 0.0, -3.0, 0.0]),
            FiniteSignal(-2, [-1.0, -2.0, -0.5, -1e-3]),
            FiniteSignal(4, [7 * 2.0 ** -1074, -2.0 ** -1074, 3 * 2.0 ** -1074])]
    for L in (300, 700):
        vals = rng.standard_normal(L) * 10.0 ** rng.integers(-8, 9, L)
        sigs.append(FiniteSignal(int(rng.integers(-50, 50)), vals.tolist()))
    return sigs


def _shortcut_levels(M, threshold):
    """M and a few ulps either side, then the threshold, one ulp under it
    (both swept) and one and two ulps over it (decided)."""
    def step(x, k):
        for _ in range(abs(k)):
            x = np.nextafter(x, np.inf if k > 0 else -np.inf)
        return float(x)
    return [step(M, k) for k in (-3, -1, 0, 1, 3)] + \
        [step(threshold, k) for k in (-1, 0, 1, 2)]


def _shortcut_trials(m_of, shift):
    """Each shortcut signal at each of its levels, shifted by `shift` per
    trial so that every trial has its own start; the threshold of each."""
    trials = []
    for sig in _shortcut_signals():
        one = Signals.of([sig])
        threshold = (one.bound_M + (m_of(one) + 3) * 2.0 ** -51 * one.l1
                     + 2.0 ** -1000)[0]
        assert threshold > sig.bound_M
        for lam in _shortcut_levels(sig.bound_M, threshold):
            trials.append((FiniteSignal(sig.lo + shift * len(trials),
                                        sig.values), lam,
                           bool(lam > threshold)))
    return trials


def _spy_grouped(monkeypatch):
    """The starts of the signals that reach zops._grouped."""
    reached, grouped = set(), zops._grouped

    def spy(fn, rows, sigs, *args):
        reached.update(sigs.lo.tolist())
        return grouped(fn, rows, sigs, *args)

    monkeypatch.setattr(zops, "_grouped", spy)
    return reached


def _check_shortcut(trials, counts, want, reached):
    decided = [t for t in trials if t[2]]
    assert decided and len(decided) < len(trials)
    assert counts == want
    for sig, lam, is_decided in trials:
        assert (sig.lo in reached) is not is_decided, (sig.lo, lam)
    # the levels inside the margin include counted ones: constant signals'
    # averages overshoot M
    assert any(c for c, t in zip(counts, trials) if t[1] >= t[0].bound_M)


def test_window_shortcut_decides_only_levels_above_the_margin(monkeypatch):
    trials = _shortcut_trials(lambda one: one.lengths - 1, 10**4)
    reached = _spy_grouped(monkeypatch)
    res = level_count_window_sup_batch(Signals.of([t[0] for t in trials]),
                                       [t[1] for t in trials])
    want = [window_count_by_n(sig, lam) for sig, lam, _ in trials]
    _check_shortcut(trials, res["count"].tolist(), want, reached)


@pytest.mark.parametrize("primes", WEAK_CONTEXTS)
def test_progression_shortcut_decides_only_levels_above_the_margin(
        primes, monkeypatch):
    ctx = GridContext(primes)
    trials = _shortcut_trials(
        lambda one: max(ctx.qtil) + ctx.K + one.hi // ctx.p + 1
        - one.lo // ctx.p, 10**4 * ctx.p)
    reached = _spy_grouped(monkeypatch)
    res = level_count_progression_sup_batch(
        Signals.of([t[0] for t in trials]), ctx, [t[1] for t in trials])
    want = []
    for (sig, lam, _), (n_lo, n_hi) in zip(trials, res["window"].tolist()):
        profile = sup_profile_by_residue(sig, ctx, n_lo, n_hi, "plus")
        want.append(int(np.sum(profile > lam)))
    _check_shortcut(trials, res["count"].tolist(), want, reached)


def test_shortcut_decides_nothing_where_running_sums_may_overflow(
        monkeypatch):
    # l1 = 2^1023: the level is far above the threshold, yet the signal is
    # swept.  The batch is built by hand: a FiniteSignal's l2sq overflows
    sig = FiniteSignal(0, [2.0 ** 1022, -2.0 ** 1022])
    sigs = Signals(np.array([0]), np.array([2]), np.array(sig.values),
                   np.array([2.0 ** 1023]), np.array([2.0 ** 1022]),
                   np.array([np.inf]))
    reached = _spy_grouped(monkeypatch)
    lam = 2.0 ** 1022 * 1.5
    assert level_count_window_sup_batch(sigs, [lam])["count"].tolist() == \
        [window_count_by_n(sig, lam)]
    assert reached == {0}


def test_signals_index_array_selects_in_its_order():
    rng = SplitMix64(derive_seed(2024, "select"))
    sigs = [random_signal(rng, 5) for _ in range(9)]
    batch = Signals.of(sigs)
    for idx in ([4, 0, 7], [8], [], [2, 2, 5]):
        part = batch[np.array(idx, dtype=np.intp)]
        assert [part.signal(i) for i in range(len(part))] == \
            [sigs[i] for i in idx]
        assert part.bound_M.tolist() == [sigs[i].bound_M for i in idx]
        assert part.l1.tolist() == [sigs[i].l1 for i in idx]


def _rows(res):
    """A batch's result arrays as one dict of Python values per signal."""
    cols = {k: [tuple(x) if v.ndim > 1 else x for x in v.tolist()]
            for k, v in res.items()}
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


def test_batches_equal_signals_alone(block_entries):
    # every context, length-1 signals and supports left of 0: each result of
    # a mixed batch is the one its signal gives alone, to the last bit
    rng = SplitMix64(derive_seed(2024, "batches"))
    for primes in GRIDS:
        ctx, sigs = _signals(primes)
        sigs.insert(3, FiniteSignal(-2 * ctx.p - 5, [0.0, -1.5, 4.0]))
        lams = [(0.02 + 1.4 * rng.uniform()) * sig.l1 for sig in sigs]
        assert _rows(level_count_progression_sup_batch(Signals.of(sigs), ctx,
                                                       lams)) == \
            [level_count_progression_sup(s, ctx, lam) for s, lam in zip(sigs, lams)]
        assert _rows(deviation_sup_l2_bound_batch(Signals.of(sigs), ctx)) == \
            [deviation_sup_l2_bound(s, ctx) for s in sigs]
    sigs = [random_signal(rng, 12) for _ in range(30)]
    sigs[5:5] = [FiniteSignal(-7, [2.0]), FiniteSignal(0, [-0.25]),
                 FiniteSignal(-40, [-1.0, -2.0, -0.5])]   # sup <= 0 everywhere
    lams = [(0.02 + 1.4 * rng.uniform()) * sig.l1 for sig in sigs]
    assert _rows(level_count_window_sup_batch(Signals.of(sigs), lams)) == \
        [level_count_window_sup(s, lam) for s, lam in zip(sigs, lams)]
    assert _rows(strong_l2_window_sup_batch(Signals.of(sigs))) == \
        [strong_l2_window_sup(s) for s in sigs]



def _tail_rows(S, k_start, cap=200_000):
    return np.array([sup_sq_tail_row(s, k_start, cap=cap) for s in S],
                    dtype=float)


# rows drawn as the two batteries make them.  Deviation rows (C <= 5) are
# cumulative sums of the nonnegative kernel, frozen (equal) from some column
# on; the strong bound's rows (C up to 48) are prefix-sum walks with ties,
# some holding near-equal heights whose crossing lies far out
_STEPS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                   st.floats(0.0, 4.0, allow_subnormal=False))
_WALK = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0]),
                  st.floats(-3.0, 3.0, allow_subnormal=False))


def _deviation_rows(data):
    C = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.tuples(st.lists(_STEPS, min_size=C, max_size=C),
                  st.integers(0, C)), min_size=1, max_size=12))
    return np.array([np.cumsum([v if c < frozen else 0.0
                                for c, v in enumerate(steps)])
                     for steps, frozen in rows])


def _walk_rows(data):
    C = data.draw(st.integers(1, 48))
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        row = np.cumsum(data.draw(st.lists(_WALK, min_size=C, max_size=C)))
        end = data.draw(st.integers(1, C))
        row[end:] = row[end - 1]                 # frozen past the signal
        if C > 1 and data.draw(st.booleans()):
            # a kept height h at column i, then h (1 + 2^-e) at column j
            i = data.draw(st.integers(0, C - 2))
            j = data.draw(st.integers(i + 1, C - 1))
            h = max(row[:i + 1].max(), 0.0) + 1.0
            row[i] = h
            row[i + 1:j] = np.minimum(row[i + 1:j], h)
            row[j] = h * (1.0 + 2.0 ** -data.draw(st.integers(3, 12)))
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("draw_rows", [_deviation_rows, _walk_rows],
                         ids=["deviation", "strong"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sup_sq_tail_bytes_equal_row_oracle(draw_rows, data, block_entries):
    S = draw_rows(data)
    for k_start in (-1, 0, 1, 3):
        assert sup_sq_tail(S, k_start).tobytes() == \
            _tail_rows(S, k_start).tobytes()


def test_run_sums_equal_np_sum_of_each_run():
    # every length 0..300 twice, and 200 more, unsorted: numpy sums a run of
    # fewer than 8 in order, up to 128 in eight lanes, longer ones in halves
    rng = np.random.default_rng(2024)
    lengths = np.concatenate([np.arange(301), np.arange(301),
                              rng.integers(0, 301, 200)])
    rng.shuffle(lengths)
    flat = rng.standard_normal(lengths.sum()) * \
        10.0 ** rng.integers(-8, 9, lengths.sum())
    for x, L in ((flat, lengths), (flat ** 2, lengths),
                 (flat, np.sort(lengths))):      # in length order: no copy
        starts = np.cumsum(L) - L
        want = np.array([np.sum(x[a:a + n]) for a, n in zip(starts, L)])
        assert zops._run_sums(x, L).tobytes() == want.tobytes()


# tracemalloc peak of sup_sq_tail on rows whose finite part runs to _TAIL_CAP
# terms, in 8-byte words per term: 1.25, the terms of one row and the arrays
# of one window of _BLOCK_ENTRIES // 8 of them; 6.0 when a row's terms are
# taken in one window, 12.0 when all rows are taken in one run
TAIL_PEAK_WORDS = 1.6


def test_sup_sq_tail_memory_stays_within_a_run():
    # near-equal heights cross past the cap; a short row rides along
    S = np.array([[1.0, 1.0 + 2.0 ** -30, 0.5],
                  [2.0, 2.0 + 2.0 ** -31, 2.0 + 2.0 ** -30],
                  [1.0, 1.0 + 2.0 ** -3, 0.0]])
    want = _tail_rows(S, 1)
    tracemalloc.start()
    try:
        got = sup_sq_tail(S, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    words = peak / (8 * zops._TAIL_CAP)
    assert words < TAIL_PEAK_WORDS, f"{words:.2f} words per term"


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
            assert rows.tobytes() == _tail_rows(S, k_start).tobytes()
            for s in S[:3]:
                assert sup_sq_tail(s[None], k_start).tobytes() == \
                    _tail_rows(s[None], k_start).tobytes()


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
        assert sup_sq_tail(S, k_start).tobytes() == \
            _tail_rows(S, k_start).tobytes()


def test_sup_sq_tail_cap_branch(block_entries, monkeypatch):
    # near-equal heights cross far out, so a small cap cuts the finite part
    S = np.array([[1.0, 1.0 + 2.0 ** -20, 3.0],
                  [0.5, 2.0, 2.0 + 2.0 ** -12],
                  [4.0, 1.0, 0.0],
                  [-1.0, -2.0, -3.0]])
    exact = sup_sq_tail(S, 1)
    for cap in (0, 2, 5, 200_000):
        monkeypatch.setattr(zops, "_TAIL_CAP", cap)
        assert sup_sq_tail(S, 1).tobytes() == \
            _tail_rows(S, 1, cap=cap).tobytes()
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


# tracemalloc peak of one weak count at a small level: the closed-form far
# field sizes nothing by the level (about 14 KB at 1e-4); swept row by row,
# the far field peaked at 12.9 MB (progression, (2, 3)) and 5.1 MB (window)
SMALL_LEVEL_PEAK_MB = 0.5


def _peak(fn):
    fn()                              # imports and caches outside the count
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / 2**20


def test_small_levels_count_without_sizing_the_far_field():
    # at 1e-4 the far field holds about 10^4 starts per residue; the counts
    # are the ones the row-by-row sweep gave
    sig = FiniteSignal(0, [1.0, -0.5, 2.0])
    ctx = GridContext((2, 3))
    for fn, want in ((lambda: level_count_progression_sup(sig, ctx, 1e-4),
                      28_994),
                     (lambda: level_count_window_sup(sig, 1e-4), 24_999)):
        res, peak = _peak(fn)
        assert res["count"] == want
        assert peak < SMALL_LEVEL_PEAK_MB, f"peak {peak:.2f} MB"


def _near_window_count_exact(sig, lam):
    """#{n in [lo, hi] : sup_N |avg of phi over [n, n+N)| > lam}, exactly."""
    count = 0
    for n in range(sig.lo, sig.hi + 1):
        acc, best = 0, 0
        for N in range(1, sig.hi - n + 2):
            acc += sig(n + N - 1)
            best = max(best, abs(F(acc, N)))
        count += best > lam
    return count


def _progression_far_rows(sig, ctx):
    """Per residue r, the exact numerators S_c (c = 1..T) of the combined
    progression mean at the starts n = blk_lo + r - k*p left of the
    support: |mean| = |S_c| / (k + c) at window block count k + c, read
    from the definitional mean at k = 1."""
    p, blk_lo = ctx.p, (ctx.t(sig.lo) - 1) * ctx.p
    rows = []
    for r in range(p):
        n = blk_lo + r - p
        rows.append([progression_mean(sig, ctx, n, _n_for_nprime(
            ctx, n, 1 + c)) * (1 + c) for c in range(1, _T(sig, ctx) + 1)])
    return rows


def test_far_fields_count_exactly_at_tiny_levels():
    # dyadic values and levels, so each float count is the exact one.  At
    # 2^-20 (about 10^-6) every far start k is checked by exact integer
    # comparisons, millions of them; nearer 2^52 starts (the largest scan
    # windows a level may ask for) the prefix length ceil(|S_c| / lam) - 1
    # - c is exact
    sig = FiniteSignal(0, [1.0, -0.5, 2.0])
    exact = FiniteSignal(0, [F(v) for v in sig.values])
    ctx = GridContext((2, 3))
    P = list(itertools.accumulate(exact.values))
    rows = _progression_far_rows(exact, ctx)
    near = sum(progression_mean_sup(exact, ctx, n) > F(2) ** -20
               for n in range(0, _T(sig, ctx) * ctx.p))
    assert level_count_window_sup(sig, 2.0 ** -20)["count"] == \
        _near_window_count_exact(exact, F(2) ** -20) + \
        far_count_by_k(P, F(2) ** -20)
    assert level_count_progression_sup(sig, ctx, 2.0 ** -20)["count"] == \
        near + sum(far_count_by_k(row, F(2) ** -20) for row in rows)
    for e in (48, 50):
        lam = F(2) ** -e
        assert level_count_window_sup(sig, float(lam))["count"] == \
            _near_window_count_exact(exact, lam) + far_count_exact(P, lam)
    lam = F(2) ** -48
    assert level_count_progression_sup(sig, ctx, float(lam))["count"] == \
        sum(progression_mean_sup(exact, ctx, n) > lam
            for n in range(0, _T(sig, ctx) * ctx.p)) + \
        sum(far_count_exact(row, lam) for row in rows)


@pytest.mark.parametrize("lam", [1e-30, 2.0 ** -50, 5e-324, float("nan")])
def test_weak_kernels_reject_levels_their_window_cannot_hold(lam):
    # l1 * max(q) / lam not below 2^52 (2^-50 reaches it on (2, 3), not on
    # the window route): refused before any array is sized, without the
    # int64 overflow of the scan window and its warning
    sig = FiniteSignal(0, [1.0, -0.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(zops.LevelTooSmall, match=f"level {lam!r}"):
            level_count_progression_sup(sig, GridContext((2, 3)), lam)
        if lam == 2.0 ** -50:
            assert level_count_window_sup(sig, lam)["count"] > 2 ** 51
        else:
            with pytest.raises(zops.LevelTooSmall, match=f"level {lam!r}"):
                level_count_window_sup(sig, lam)
    assert issubclass(zops.LevelTooSmall, ValueError)


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
        squared.append(np.array(x, dtype=float).ravel())
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
