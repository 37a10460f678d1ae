from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import as_floats, window_count_exact
from primegrid.rng import SplitMix64, derive_seed
from primegrid.zops import (
    FiniteSignal,
    GridContext,
    Signals,
    NonpositiveLambda,
    _lattice_tables,
    _n_for_nprime,
    block_average,
    deviation_sup_l2_bound,
    dft,
    idft,
    lattice_deviation,
    lattice_deviation_j,
    lattice_mean,
    lattice_mean_j,
    lattice_mean_over_j_sup,
    lattice_sup_j,
    level_count_progression_sup,
    level_count_window_sup,
    mean_over_j,
    mean_over_j_sup,
    parseval_residual,
    periodized_block,
    progression_deviation,
    progression_deviation_j,
    progression_deviation_sup,
    progression_mean,
    progression_mean_j,
    progression_mean_sup,
    smeared_at,
    strong_l2_window_sup,
    sup_profile,
    window_sup,
)

CTXS = [GridContext((2, 3)), GridContext((3, 5)), GridContext((5, 7))]
SWEEP_TRIALS = {6: 60, 15: 16, 35: 4}


def rational_signal(rng: SplitMix64, ctx: GridContext, nonneg=False) -> FiniteSignal:
    length = rng.randint(1, 2 * ctx.p)
    lo = rng.randint(-ctx.p, ctx.p)
    vals = [F(rng.randint(0 if nonneg else -8, 8), (1, 2, 4)[rng.randint(0, 2)])
            for _ in range(length)]
    return FiniteSignal(lo, vals)


# ---------------------------------------------------------------------------
# context and signal basics


def test_grid_context_derived_quantities():
    ctx = GridContext((2, 3))
    assert ctx.p == 6 and ctx.qtil == (3, 2) and ctx.pQ == 5
    assert ctx.t(0) == 1 and ctx.t(-1) == 0 and ctx.t(6) == 2
    assert ctx.nprime(0, 5) == 1 and ctx.nprime(0, 6) == 2
    assert ctx.window(0, 5) == (0, 6)
    assert ctx.nu(0, 5) == 6 and ctx.nu_j(0, 5, 0) == 3
    assert ctx.nprime_min(5) == 2 and ctx.nprime_min(4) == 1


def test_grid_context_validation():
    with pytest.raises(ValueError):
        GridContext((4, 3))
    with pytest.raises(ValueError):
        GridContext((3, 3))
    assert GridContext((5, 7, 11)).ratio_ok is False
    assert GridContext((5, 7)).ratio_ok is True


def test_nu_at_most_N_plus_2p():
    # a window crossing one grid boundary with small N already has nu = 2p,
    # so N + 2p is the sharp general bound
    ctx = GridContext((3, 5))
    for n in range(-20, 20):
        for N in range(1, 40):
            assert ctx.nu(n, N) <= N + 2 * ctx.p
    assert ctx.nu(14, 1) == 2 * ctx.p


def test_signal_bounds():
    sig = FiniteSignal(-2, [F(1), F(-3, 2), F(0)])
    assert sig.bound_M == F(3, 2)
    assert sig.l1 == F(5, 2)
    assert sig(-2) == 1 and sig(5) == 0


# ---------------------------------------------------------------------------
# Fourier layer


def test_dft_delta_is_constant():
    spec = dft([1, 0, 0, 0])
    assert np.allclose(spec.coeffs, 0.25)


def test_dft_constant_is_spike():
    spec = dft([3.0] * 5)
    assert abs(spec.coeffs[0] - 3.0) < 1e-12
    assert np.abs(spec.coeffs[1:]).max() < 1e-12


def test_roundtrip_and_parseval_200_random():
    rng = SplitMix64(derive_seed(11, "fourier"))
    for trial in range(200):
        p = (6, 15, 35)[rng.randint(0, 2)]
        block = np.array([rng.uniform() * 8 - 4 for _ in range(p)]) \
            + 1j * np.array([rng.uniform() * 8 - 4 for _ in range(p)])
        spec = dft(block)
        assert np.abs(idft(spec) - block).max() < 1e-9
        assert parseval_residual(block, spec) < 1e-9


def test_smear_mask_identity():
    # the smear's transform is the original's with all frequencies killed
    # except multiples of the cofactor
    rng = SplitMix64(derive_seed(12, "mask"))
    for ctx in CTXS:
        p = ctx.p
        for trial in range(30):
            block = np.array([rng.uniform() * 4 - 2 for _ in range(p)])
            sig = FiniteSignal(0, list(block))
            base = dft(block)
            for j in range(ctx.K):
                smeared = dft(np.array([float(smeared_at(sig, ctx, j, i))
                                        for i in range(p)]))
                mask = (np.arange(p) % ctx.qtil[j] == 0)
                expected = np.where(mask, base.coeffs, 0)
                assert np.abs(smeared.coeffs - expected).max() < 1e-9


def test_orthogonality_of_smears():
    # away from frequency zero, distinct progressions' smears have disjoint
    # spectra: the product of their transforms vanishes
    rng = SplitMix64(derive_seed(13, "orth"))
    for ctx in CTXS:
        p = ctx.p
        for trial in range(30):
            block = np.array([rng.uniform() * 4 - 2 for _ in range(p)])
            sig = FiniteSignal(0, list(block))
            specs = [dft(np.array([float(smeared_at(sig, ctx, j, i))
                                   for i in range(p)])).coeffs
                     for j in range(ctx.K)]
            worst = 0.0
            for a in range(ctx.K):
                for b in range(a + 1, ctx.K):
                    worst = max(worst, np.abs(specs[a][1:] * specs[b][1:]).max())
            assert worst < 1e-12


# ---------------------------------------------------------------------------
# grid decompositions


def test_periodization_identity_on_own_block():
    # the periodized block restricted to its own interval is the signal
    rng = SplitMix64(derive_seed(14, "parts"))
    for ctx in CTXS:
        sig = rational_signal(rng, ctx)
        for n in range(sig.lo, sig.hi + 1):
            t = ctx.t(n)
            per = periodized_block(sig, ctx, t)
            assert per[n - (t - 1) * ctx.p] == sig(n)


def test_block_average_mass_preserved():
    # summing the blockwise mean over all integers returns the signal mass
    rng = SplitMix64(derive_seed(15, "mass"))
    for ctx in CTXS:
        for _ in range(20):
            sig = rational_signal(rng, ctx)
            t_lo, t_hi = ctx.t(sig.lo), ctx.t(sig.hi)
            total = sum(ctx.p * block_average(sig, ctx, (t - 1) * ctx.p)
                        for t in range(t_lo, t_hi + 1))
            assert total == sum(sig.values)


def test_delta_smear_values():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    assert block_average(delta, ctx, 0) == F(1, 6)
    assert [smeared_at(delta, ctx, 0, i) for i in range(6)] == \
        [F(1, 3), 0, F(1, 3), 0, F(1, 3), 0]
    assert [smeared_at(delta, ctx, 1, i) for i in range(6)] == \
        [F(1, 2), 0, 0, F(1, 2), 0, 0]


def test_already_periodic_block_fixed_by_periodization():
    ctx = GridContext((2, 3))
    vals = [F(2), F(1), F(0), F(1), F(2), F(3)]
    sig = FiniteSignal(0, vals)
    assert periodized_block(sig, ctx, 1) == vals


# ---------------------------------------------------------------------------
# the worked micro-example, both routes


def test_micro_example_mean():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    assert progression_mean_j(delta, ctx, 0, 5, 0) == F(1, 3)
    assert progression_mean_j(delta, ctx, 0, 5, 1) == F(1, 2)
    assert progression_mean(delta, ctx, 0, 5) == F(2, 5)
    assert lattice_mean_j(delta, ctx, 0, 5, 0) == F(1, 3)
    assert lattice_mean(delta, ctx, 0, 5) == F(2, 5)


def test_micro_example_deviation():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    assert progression_deviation_j(delta, ctx, 0, 5, 0) == F(1, 6)
    assert progression_deviation_j(delta, ctx, 0, 5, 1) == F(1, 3)
    assert progression_deviation(delta, ctx, 0, 5) == F(7, 30)
    assert lattice_deviation_j(delta, ctx, 0, 5, 0) == F(1, 6)
    assert lattice_deviation(delta, ctx, 0, 5) == F(7, 30)


def test_constant_signal_mean_one_deviation_zero():
    ctx = GridContext((2, 3))
    one = FiniteSignal(0, [F(1)] * 6)
    assert progression_mean(one, ctx, 0, 5) == 1
    assert progression_deviation(one, ctx, 0, 5) == 0
    assert progression_mean_sup(one, ctx, 2) == 1


def test_blockwise_constant_deviation_vanishes():
    ctx = GridContext((3, 5))
    sig = FiniteSignal(0, [F(2)] * 15 + [F(-1)] * 15)
    for n in (0, 3, 17, 29):
        for N in (1, 10, 31):
            assert progression_deviation(sig, ctx, n, N) == 0


# ---------------------------------------------------------------------------
# representation identities, exact arithmetic, zero tolerance


def test_pointwise_value_identities_exact():
    rng = SplitMix64(derive_seed(16, "values"))
    for ctx in CTXS:
        for trial in range(100):
            sig = rational_signal(rng, ctx)
            n = rng.randint(sig.lo - ctx.p, sig.hi + ctx.p)
            N = rng.randint(1, 3 * ctx.p)
            for j in range(ctx.K):
                assert progression_mean_j(sig, ctx, n, N, j) == \
                    lattice_mean_j(sig, ctx, n, N, j)
                assert progression_deviation_j(sig, ctx, n, N, j) == \
                    lattice_deviation_j(sig, ctx, n, N, j)
            assert progression_mean(sig, ctx, n, N) == lattice_mean(sig, ctx, n, N)
            assert progression_deviation(sig, ctx, n, N) == \
                lattice_deviation(sig, ctx, n, N)


def test_sup_identities_exact():
    # deviation suprema per progression equal the lattice-maximal form, and
    # the j-averaged mean supremum equals its lattice form, pointwise
    rng = SplitMix64(derive_seed(17, "sups"))
    for ctx in CTXS:
        for trial in range(100):
            sig = rational_signal(rng, ctx, nonneg=(trial % 2 == 0))
            n = rng.randint(sig.lo - 2 * ctx.p, sig.hi + ctx.p)
            for j in range(ctx.K):
                assert progression_deviation_sup(sig, ctx, n, j) == \
                    lattice_sup_j(sig, ctx, n, j)
            assert mean_over_j_sup(sig, ctx, n) == \
                lattice_mean_over_j_sup(sig, ctx, n)


def test_sups_equal_brute_force_over_N():
    # each supremum is max(0, every window length N), up to well past the
    # window that covers the support, from the pointwise operator itself
    rng = SplitMix64(derive_seed(22, "sweep"))
    for ctx in CTXS:
        for trial in range(SWEEP_TRIALS[ctx.p]):
            sig = rational_signal(rng, ctx, nonneg=(trial % 2 == 0))
            n = rng.randint(sig.lo - 2 * ctx.p, sig.hi + ctx.p)
            cover = ctx.t(sig.hi) - ctx.t(n) + 1
            Ns = range(1, (cover + 3) * ctx.p + 1)

            def brute(value):
                return max([0] + [value(N) for N in Ns])

            assert progression_mean_sup(sig, ctx, n) == \
                brute(lambda N: abs(progression_mean(sig, ctx, n, N)))
            assert progression_deviation_sup(sig, ctx, n) == \
                brute(lambda N: progression_deviation(sig, ctx, n, N))
            assert mean_over_j_sup(sig, ctx, n) == \
                brute(lambda N: mean_over_j(sig, ctx, n, N))
            assert lattice_mean_over_j_sup(sig, ctx, n) == brute(
                lambda N: sum(lattice_mean_j(sig, ctx, n, N, j)
                              for j in range(ctx.K)) / ctx.K)
            for j in range(ctx.K):
                assert progression_deviation_sup(sig, ctx, n, j) == \
                    brute(lambda N: progression_deviation_j(sig, ctx, n, N, j))
                assert lattice_sup_j(sig, ctx, n, j) == \
                    brute(lambda N: lattice_deviation_j(sig, ctx, n, N, j))
            # the sweep asks for one N per block count, from the smallest
            # reachable count up
            seen = []
            window_sup(sig, ctx, n, lambda N: seen.append(N) or 0)
            lo = ctx.nprime_min(n)
            assert seen and min(seen) >= 1
            for Np, N in enumerate(seen, start=lo):
                assert N == _n_for_nprime(ctx, n, Np)
                assert ctx.nprime(n, N) == Np
    # a negative delta: every j-averaged mean is below 0 and tends to 0
    ctx = GridContext((2, 3))
    minus_delta = FiniteSignal(0, [F(-1)])
    assert mean_over_j(minus_delta, ctx, 0, 12) == F(-5, 36)
    assert mean_over_j_sup(minus_delta, ctx, 0) == 0
    assert lattice_mean_over_j_sup(minus_delta, ctx, 0) == 0


def test_pointwise_operators_reject_nonpositive_N():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    for N in (0, -7):
        for op in (progression_mean, progression_deviation,
                   lattice_mean, lattice_deviation):
            with pytest.raises(ValueError):
                op(delta, ctx, 0, N)
        for op in (progression_mean_j, progression_deviation_j,
                   lattice_mean_j, lattice_deviation_j):
            with pytest.raises(ValueError):
                op(delta, ctx, 0, N, 0)


def test_own_block_evaluation_recovers_signal():
    rng = SplitMix64(derive_seed(18, "own"))
    ctx = GridContext((3, 5))
    sig = rational_signal(rng, ctx)
    for n in range(sig.lo, sig.hi + 1):
        per = periodized_block(sig, ctx, ctx.t(n))
        assert per[n % ctx.p] == sig(n)


# ---------------------------------------------------------------------------
# pointwise comparison bounds


def test_mean_combination_bound_nonneg():
    # for nonnegative signals the combined mean is at most 2/K times the sum
    # of the per-progression means
    rng = SplitMix64(derive_seed(19, "d24"))
    for ctx in CTXS:
        for trial in range(170):
            sig = rational_signal(rng, ctx, nonneg=True)
            n = rng.randint(sig.lo - ctx.p, sig.hi + ctx.p)
            N = rng.randint(1, 3 * ctx.p)
            combined = progression_mean(sig, ctx, n, N)
            parts = sum(progression_mean_j(sig, ctx, n, N, j)
                        for j in range(ctx.K))
            assert combined <= F(2, ctx.K) * parts


def test_deviation_combination_bound():
    rng = SplitMix64(derive_seed(20, "d7b"))
    for ctx in CTXS:
        for trial in range(60):
            sig = rational_signal(rng, ctx)
            n = rng.randint(sig.lo - ctx.p, sig.hi + ctx.p)
            N = rng.randint(1, 3 * ctx.p)
            combined = abs(progression_deviation(sig, ctx, n, N))
            parts = sum(abs(progression_deviation_j(sig, ctx, n, N, j))
                        for j in range(ctx.K))
            assert combined <= F(2, ctx.K) * parts


# ---------------------------------------------------------------------------
# level counts and the l2 check


def test_weak_count_delta_large_lambda():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    res = level_count_progression_sup(delta, ctx, F(10))
    assert res["count"] == 0 and res["ok"]
    assert res["count"] <= res["bound"] == 0.4


def test_weak_count_interval_signal():
    # constant M on a length-60 interval at lambda = M/2: every point of the
    # interval clears the level, the count stays within the weak bound
    ctx = GridContext((2, 3))
    sig = FiniteSignal(0, [F(1)] * 60)
    res = level_count_progression_sup(sig, ctx, F(1, 2))
    n_lo, n_hi = res["window"]
    exact = sum(1 for n in range(n_lo, n_hi + 1)
                if progression_mean_sup(sig, ctx, n) > F(1, 2))
    assert res["count"] == exact
    assert exact >= 60
    assert exact <= 8 * 60
    fast = level_count_progression_sup(as_floats(sig), ctx, 0.5)
    assert fast["count"] == exact


def test_weak_count_rejects_bad_lambda():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    with pytest.raises(NonpositiveLambda):
        level_count_progression_sup(delta, ctx, 0)
    with pytest.raises(NonpositiveLambda):
        level_count_window_sup(delta, -1)


def test_l2_check_delta():
    ctx = GridContext((2, 3))
    res = deviation_sup_l2_bound(FiniteSignal(0, [1.0]), ctx)
    assert res["rhs"] == 16.0
    assert res["ok"] and res["lhs"] <= 16.0


def test_l2_check_blockwise_constant():
    ctx = GridContext((2, 3))
    res = deviation_sup_l2_bound(FiniteSignal(0, [2.0] * 12), ctx)
    assert res["lhs"] == 0.0


def test_classic_weak_delta_exact_count():
    # recomputed exactly: only n = 0 clears level 1/2 (the sup at n = -1 is
    # exactly 1/2 and the count uses a strict inequality)
    delta = FiniteSignal(0, [F(1)])
    assert window_count_exact(delta, F(1, 2)) == 1
    res = level_count_window_sup(delta, F(1, 2))
    assert res["count"] == 1
    assert res["bound"] == 4.0
    assert level_count_window_sup(as_floats(delta), 0.5)["count"] == 1


def test_classic_zero_signal():
    zero = FiniteSignal(0, [F(0), F(0)])
    assert window_count_exact(zero, F(1, 3)) == 0
    res = level_count_window_sup(zero, F(1, 3))
    assert res["count"] == 0 and res["bound"] == 0.0
    res = strong_l2_window_sup(FiniteSignal(0, [0.0, 0.0]))
    assert res["lhs"] == 0.0 and res["rhs"] == 0.0


def test_strong_l2_brute_force_spot():
    sig = FiniteSignal(-2, [1.0, -2.0, 3.0, 0.5, -1.0])
    res = strong_l2_window_sup(sig)
    brute_sq = 0.0
    for n in range(-3000, 6):
        best, acc = 0.0, 0.0
        for N in range(1, max(sig.hi - n, 1) + 1):
            acc += sig(n + N)
            best = max(best, acc / N)
        brute_sq += best * best
    # the analytic value adds the exact left tail, bounded by (max prefix)^2/D
    tail_bound = 2.5**2 / 2999
    assert brute_sq - 1e-9 <= res["lhs"] ** 2 <= brute_sq + tail_bound
    assert res["ok"]


def test_strong_l2_rejects_complex():
    with pytest.raises(TypeError):
        strong_l2_window_sup(FiniteSignal(0, [1 + 1j]))


def test_sup_profile_matches_exact_sweeps():
    rng = SplitMix64(derive_seed(21, "profiles"))
    for ctx in CTXS:
        sig = rational_signal(rng, ctx)
        lo, hi = sig.lo - 3 * ctx.p - 2, sig.hi + 2 * ctx.p + 3
        one = Signals.of([as_floats(sig)])
        plus = sup_profile(_lattice_tables(one, ctx, "plus"), ctx, lo, hi)
        minus = sup_profile(_lattice_tables(one, ctx, "minus"), ctx, lo, hi)
        for i, n in enumerate(range(lo, hi + 1)):
            assert abs(plus[i] - float(progression_mean_sup(sig, ctx, n))) < 1e-9
            assert abs(minus[i] - float(progression_deviation_sup(sig, ctx, n))) < 1e-9


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=60, deadline=None)
@given(shift=st.integers(-4, 4), scale=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_grid_shift_and_scale_covariance(shift, scale, seed):
    # translating by whole periods relocates the operator; scaling is linear
    ctx = GridContext((2, 3))
    rng = SplitMix64(seed)
    sig = rational_signal(rng, ctx)
    moved = FiniteSignal(sig.lo + shift * ctx.p, [scale * v for v in sig.values])
    n = rng.randint(sig.lo - 6, sig.hi + 6)
    N = rng.randint(1, 18)
    assert progression_mean(moved, ctx, n + shift * ctx.p, N) == \
        scale * progression_mean(sig, ctx, n, N)
    assert progression_deviation(moved, ctx, n + shift * ctx.p, N) == \
        scale * progression_deviation(sig, ctx, n, N)
