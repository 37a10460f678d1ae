"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from _oracles import block_elements, dense_orbit, oracle_block
from primegrid.dynsim import (
    CyclicSystem,
    RotationSystem,
    build_tower,
    decompose,
    indicator,
    sample_orbit,
    subseq_average,
    tower_transfer_check,
)
from primegrid.ledger import InfeasibleAtScale, build_ledger, check_constraints, extend_ledger
from primegrid.rng import SplitMix64, derive_seed
from primegrid.sequence import banach_density, gap_profile, verify_block
from primegrid.zbattery import run_all
from primegrid.zops import (
    FiniteSignal,
    GridContext,
    dft,
    idft,
    lattice_deviation,
    lattice_mean,
    lattice_mean_over_j_sup,
    lattice_sup_j,
    mean_over_j_sup,
    parseval_residual,
    progression_deviation,
    progression_deviation_sup,
    progression_mean,
    smeared_at,
)

SEED = 20250809


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_construction_fidelity():
    t0 = time.perf_counter()
    led = build_ledger("faithful", 2)
    for m in (1, 2):
        rep = check_constraints(led, m)
        assert rep.overall, [r.name for r in rep.failing()]
    with pytest.raises(InfeasibleAtScale) as exc:
        extend_ledger(led)
    elapsed = time.perf_counter() - t0
    assert exc.value.required > 10**12
    assert elapsed < 1.0
    _report(1, f"faithful blocks 1-2 pass all records; block 3 needs "
               f"K >= {exc.value.required} (> 1e12); {elapsed:.3f}s")


def test_criterion_2_density_window_bounds(demo_ledger, demo_store):
    t0 = time.perf_counter()
    windows = 0
    for m in range(2, 6):
        blk = demo_ledger.blocks[m - 1]
        lo, hi = demo_store.betas[m - 1], demo_store.betas[m]
        pQ = sum(blk.p // q for q in blk.primes)
        n_win = (hi - lo) // blk.p
        edges = lo + blk.p * np.arange(n_win + 1, dtype=np.int64)
        counts = np.diff(np.searchsorted(demo_store.block(m), edges))
        for c in counts:                    # exhaustive, exact rationals
            ratio = F(int(c), pQ)
            assert 1 - blk.gamma < ratio < 1, (m, ratio)
        windows += n_win
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"{windows} aligned windows over blocks 2-5 hold the two-sided "
               f"density bound exactly; {elapsed:.2f}s, beta_5 = {demo_store.horizon}")


def test_criterion_3_gaps_and_density(demo_ledger, demo_store):
    prof = {m: g for m, _, g in gap_profile(demo_store)}
    for m in range(2, 6):
        blk = demo_ledger.blocks[m - 1]
        assert prof[m] >= blk.d
        rep = verify_block(demo_ledger, demo_store, m)
        assert rep.spacing_ok
    dens = [banach_density(demo_store, L) for L in (10**3, 10**4, 10**5, 10**6)]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    _report(3, "min gaps >= d_m, leading-gap emptiness holds, window density "
               f"strictly falls: {[str(d) for d in dens]}")


def test_criterion_4_oracle_equivalence(demo_ledger, demo_store):
    rng = SplitMix64(derive_seed(SEED, "oracle_eq"))
    pool = [2, 3, 4, 5, 6, 7, 9, 11, 13]
    cases = 0
    for _ in range(16):                     # randomized toy configurations
        k = rng.randint(1, 3)
        moduli = []
        while len(moduli) < k:
            q = pool[rng.randint(0, len(pool) - 1)]
            if q not in moduli:
                moduli.append(q)
        d = rng.randint(0, 4)
        lo = rng.randint(0, 80)
        hi = lo + rng.randint(0, 200)
        assert list(block_elements(tuple(moduli), d, lo, hi)) == \
            oracle_block(tuple(moduli), d, lo, hi)
        cases += 1
    for m in (2, 3):                        # full demo blocks, as stored
        blk = demo_ledger.blocks[m - 1]
        assert list(demo_store.block(m)) \
            == oracle_block(blk.primes, blk.d, blk.beta_prev, blk.beta)
        cases += 1
    for m in (4, 5):                        # demo parameters, truncated range
        blk = demo_ledger.blocks[m - 1]
        hi = blk.beta_prev + 3 * blk.p
        assert list(block_elements(blk.primes, blk.d, blk.beta_prev, hi)) == \
            oracle_block(blk.primes, blk.d, blk.beta_prev, hi)
        cases += 1
    assert cases >= 20
    _report(4, f"{cases} configurations match the point-by-point oracle exactly")


def test_criterion_5_fourier_layer():
    rng = SplitMix64(derive_seed(SEED, "fourier"))
    worst_rt, worst_pv = 0.0, 0.0
    for _ in range(200):
        p = (6, 15, 35)[rng.randint(0, 2)]
        block = (np.array([rng.uniform() * 8 - 4 for _ in range(p)])
                 + 1j * np.array([rng.uniform() * 8 - 4 for _ in range(p)]))
        spec = dft(block)
        worst_rt = max(worst_rt, float(np.abs(idft(spec) - block).max()))
        worst_pv = max(worst_pv, parseval_residual(block, spec))
    assert worst_rt < 1e-9 and worst_pv < 1e-9
    worst_orth, worst_mask = 0.0, 0.0
    for primes in ((2, 3), (3, 5), (5, 7)):
        ctx = GridContext(primes)
        for _ in range(40):
            block = np.array([rng.uniform() * 4 - 2 for _ in range(ctx.p)])
            sig = FiniteSignal(0, list(block))
            base = dft(block)
            specs = []
            for j in range(ctx.K):
                sm = dft(np.array([float(smeared_at(sig, ctx, j, i))
                                   for i in range(ctx.p)]))
                specs.append(sm.coeffs)
                mask = (np.arange(ctx.p) % ctx.qtil[j] == 0)
                worst_mask = max(worst_mask, float(
                    np.abs(sm.coeffs - np.where(mask, base.coeffs, 0)).max()))
            for a in range(ctx.K):
                for b in range(a + 1, ctx.K):
                    worst_orth = max(worst_orth, float(
                        np.abs(specs[a][1:] * specs[b][1:]).max()))
    assert worst_mask < 1e-9 and worst_orth < 1e-12
    _report(5, f"roundtrip {worst_rt:.2e}, parseval {worst_pv:.2e}, "
               f"mask {worst_mask:.2e}, orthogonality {worst_orth:.2e}")


def test_criterion_6_representation_identities():
    rng = SplitMix64(derive_seed(SEED, "representations"))
    checked = 0
    for primes in ((2, 3), (3, 5), (5, 7)):
        ctx = GridContext(primes)
        for trial in range(100):
            length = rng.randint(1, 2 * ctx.p)
            lo = rng.randint(-ctx.p, ctx.p)
            vals = [F(rng.randint(0 if trial % 2 else -8, 8),
                      (1, 2, 4)[rng.randint(0, 2)]) for _ in range(length)]
            sig = FiniteSignal(lo, vals)
            n = rng.randint(sig.lo - 2 * ctx.p, sig.hi + ctx.p)
            for j in range(ctx.K):
                assert progression_deviation_sup(sig, ctx, n, j) == \
                    lattice_sup_j(sig, ctx, n, j)
            assert mean_over_j_sup(sig, ctx, n) == \
                lattice_mean_over_j_sup(sig, ctx, n)
            checked += 1
    assert checked == 300
    _report(6, "300 exact supremum identities (deviation per progression and "
               "j-averaged mean), zero tolerance")


def test_criterion_7_inequality_battery():
    t0 = time.perf_counter()
    res = run_all(SEED, trials=1000)
    elapsed = time.perf_counter() - t0
    lines = []
    for name, s in sorted(res["summary"].items()):
        assert s["failures"] == 0, (name, s)
        assert s["trials"] >= 1000
        lines.append(f"{name} max_ratio {s['max_ratio']:.3f}")
    _report(7, f"4 batteries x >=1000 trials, zero violations "
               f"({'; '.join(lines)}); {elapsed:.1f}s")


def test_criterion_8_worked_micro_example():
    ctx = GridContext((2, 3))
    delta = FiniteSignal(0, [F(1)])
    defs = (progression_mean(delta, ctx, 0, 5),
            progression_deviation(delta, ctx, 0, 5))
    reps = (lattice_mean(delta, ctx, 0, 5),
            lattice_deviation(delta, ctx, 0, 5))
    assert defs == (F(2, 5), F(7, 30))
    assert reps == (F(2, 5), F(7, 30))
    _report(8, "delta signal: mean 2/5 and deviation 7/30 on both routes")


def test_criterion_9_tower_transfer():
    t0 = time.perf_counter()
    ctx = GridContext((5, 7))
    table = tuple(1 if (3 * r + 1) % 11 < 4 else 0 for r in range(10**5))
    system = CyclicSystem(10**5, table)
    tower = build_tower(10**5, 1200, F(1, 50))
    rep = tower_transfer_check(tower, system, ctx, trials=100, horizon=200,
                               seed=derive_seed(SEED, "transfer"))
    elapsed = time.perf_counter() - t0
    assert rep["exact_matches"] == rep["trials"] == 100
    assert elapsed < 10.0
    _report(9, f"100/100 exact operator transfers on Z_100000; {elapsed:.2f}s")


def test_criterion_10_convergence_experiment(demo_store):
    t0 = time.perf_counter()
    system = RotationSystem.golden()
    obs = indicator(F(0), F(1, 2))
    rng = SplitMix64(derive_seed(SEED, "acceptance10"))
    final_n = demo_store.horizon            # last full-block checkpoint
    hits, devs = 0, []
    for _ in range(100):
        x0 = F(rng.next_u64(), 1 << 64)
        a = subseq_average(sample_orbit(system, x0, final_n, obs), demo_store,
                           final_n)
        dev = abs(float(a) - 0.5)
        devs.append(dev)
        if dev < 1e-2:
            hits += 1
    assert hits >= 95
    # plain-average agreement on the first block, exact
    beta1 = demo_store.betas[1]
    orb = sample_orbit(system, F(1, 7), beta1, obs)
    dense = dense_orbit(system, F(1, 7), beta1, obs)
    for N in (1, 100, beta1):
        assert subseq_average(orb, demo_store, N) == \
            F(int(dense[:N].sum()), N)
    elapsed = time.perf_counter() - t0
    _report(10, f"{hits}/100 starting points within 1e-2 at N = {final_n} "
                f"(max dev {max(devs):.2e}, median {sorted(devs)[50]:.2e}); "
                f"first-block agreement exact; {elapsed:.1f}s")


def test_criterion_11_decomposition(demo_ledger):
    rng = SplitMix64(derive_seed(SEED, "decomposition"))
    for trial in range(50):
        k = rng.randint(1, 6)
        values = [F(rng.randint(0, 10**5), rng.randint(1, 9)) for _ in range(k)]
        lam = F(rng.randint(1, 12), rng.randint(1, 4))
        dec = decompose(values, demo_ledger, lam)
        assert dec.check_identity()
        for v in dec.values:
            for m in (1, 2, 3):
                assert dec.parts[m][v][0] == 0
            assert sum(dec.parts[m][v][1] for m in dec.parts) \
                <= 3 * v / dec.lam_prime
    _report(11, "50 random step functions: split identity, empty low part "
                "through block 3, and the triple bound, all exact")
