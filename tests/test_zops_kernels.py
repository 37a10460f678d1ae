"""The batched float kernels of primegrid.zops against their row-at-a-time
oracles: equal to the last bit (==, never approx), on the battery grids."""

from fractions import Fraction as F

import numpy as np
import pytest

from _oracles import (
    deviation_lhs_by_residue,
    lattice_table,
    strong_l2_lhs_by_n,
    sup_profile_by_residue,
    sup_sq_tail_row,
    window_count_by_n,
    window_count_exact,
)
from primegrid import zops
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
                assert sup_sq_tail(s, k_start) == sup_sq_tail_row(s, k_start)


def test_sup_sq_tail_cap_branch(block_entries):
    # near-equal heights cross far out, so a small cap cuts the finite part
    S = np.array([[1.0, 1.0 + 2.0 ** -20, 3.0],
                  [0.5, 2.0, 2.0 + 2.0 ** -12],
                  [4.0, 1.0, 0.0],
                  [-1.0, -2.0, -3.0]])
    for cap in (0, 2, 5, 200_000):
        assert sup_sq_tail(S, 1, cap=cap).tolist() == \
            [sup_sq_tail_row(s, 1, cap=cap) for s in S]
    # row 1 crosses at k = 8190: exact under the default cap, over-bounded
    # under a small one
    assert sup_sq_tail(S, 1, cap=2)[1] > sup_sq_tail(S, 1)[1]


def test_window_count_float_matches_exact():
    rng = SplitMix64(derive_seed(2024, "window-exact"))
    for _ in range(40):
        draw = random_signal(rng, 6)
        sig = FiniteSignal(draw.lo, [F(v) for v in draw.values])
        lam = F(rng.randint(1, 24), (1, 2, 3, 4, 8)[rng.randint(0, 4)])
        exact = window_count_exact(sig, lam)
        fast = level_count_window_sup(sig.as_floats(), float(lam))["count"]
        assert fast == exact
    # a level equal to an attained average is not exceeded on either path
    sig = FiniteSignal(0, [F(3), F(-1), F(2)])
    for lam in (F(3), F(2), F(4, 3), F(1)):
        assert window_count_exact(sig, lam) == \
            level_count_window_sup(sig.as_floats(), float(lam))["count"]
