import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primegrid import blocksets, sequence
from primegrid.blocksets import Block, block_count, survivors_by_progression
from primegrid.constants import demo_constants
from primegrid.ledger import MAX_BETA, BlockParams, Ledger, build_ledger
from primegrid.rng import SplitMix64
from primegrid.sequence import (
    OutOfBuiltRange,
    SequenceStore,
    WindowTooLarge,
    banach_density,
    block_summaries,
    build_store,
    count_bounds_check,
    gap_profile,
    verify_block,
    write_elements,
)

from _oracles import (
    banach_density_all_starts,
    block_elements,
    gap_profile_whole,
    nbar_block,
    nk,
    oracle_block,
)


def test_toy_block_matches_hand_value():
    # moduli {3, 5}, d = 1 on [15, 45): multiples of 5 all die, multiples of 3
    # die within distance 1 of a multiple of 5
    got = block_elements((3, 5), 1, 15, 45)
    assert list(got) == [18, 27, 33, 42]
    assert oracle_block((3, 5), 1, 15, 45) == [18, 27, 33, 42]


def test_oracle_equivalence_randomized(demo_ledger):
    rng = SplitMix64(0x5EED)
    pool = [2, 3, 4, 5, 6, 7, 9, 11, 13]
    configs = 0
    while configs < 24:
        k = rng.randint(1, 3)
        moduli = []
        while len(moduli) < k:
            q = pool[rng.randint(0, len(pool) - 1)]
            if q not in moduli:
                moduli.append(q)
        d = rng.randint(0, 4)
        lo = rng.randint(0, 60)
        hi = lo + rng.randint(0, 160)
        got = list(block_elements(tuple(moduli), d, lo, hi))
        want = oracle_block(tuple(moduli), d, lo, hi)
        assert got == want, (moduli, d, lo, hi)
        assert block_count(tuple(moduli), d, lo, hi) == len(want), \
            (moduli, d, lo, hi)
        configs += 1
    for m in (2, 3):                        # full demo blocks
        blk = demo_ledger.block(m)
        args = (blk.primes, blk.d, blk.beta_prev, blk.beta)
        assert block_count(*args) == len(oracle_block(*args)) == blk.count


@pytest.mark.parametrize("primes, d, what", [((3, 5), -1, "distance d"),
                                              ((), 1, "progression")])
def test_survivors_reject_inputs_that_break_disjointness(primes, d, what):
    # with d < 0 a common multiple survives in two progressions
    with pytest.raises(ValueError, match=what):
        survivors_by_progression(primes, d, 0, 60)


def test_deleted_counts_match_oracle():
    moduli, d, lo, hi = (5, 7), 2, 35, 175
    per_j = survivors_by_progression(moduli, d, lo, hi)
    for j, q in enumerate(moduli):
        keep = [n for n in oracle_block(moduli, d, lo, hi) if n % q == 0]
        assert per_j[j].tolist() == keep


# ---------------------------------------------------------------------------
# the tiled kernel: one period of survivors across the interior, the rule at
# the two ends


@settings(max_examples=300, deadline=None)
@given(
    moduli=st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 10, 15]),
                    min_size=1, max_size=3, unique=True),
    d=st.integers(0, 4),
    lo=st.integers(0, 10**6),
    periods=st.integers(0, 4),
    extra=st.integers(-9, 9),
    fill_periods=st.sampled_from([1, 2, blocksets._FILL_PERIODS]),
)
# 12 survives: its one neighbour in the other progression, 10, is outside
# the block, and so is 65 for 63; both sit one point outside [lo + d, hi - d)
@example(moduli=[3, 5], d=2, lo=11, periods=3, extra=5, fill_periods=1)
@example(moduli=[1], d=3, lo=0, periods=0, extra=4, fill_periods=1)  # block 1
@example(moduli=[1], d=0, lo=3, periods=9, extra=0, fill_periods=2)
@example(moduli=[1, 4, 6], d=1, lo=7, periods=3, extra=1, fill_periods=2)
@example(moduli=[4, 6, 9], d=0, lo=5, periods=2, extra=0,
         fill_periods=1)                                           # d = 0
@example(moduli=[4, 6, 9], d=2, lo=41, periods=2, extra=0,
         fill_periods=1)                                           # 2 periods
@example(moduli=[4, 6, 9], d=2, lo=41, periods=2, extra=-1, fill_periods=1)
@example(moduli=[6, 10, 15], d=4, lo=3, periods=0, extra=-3,
         fill_periods=2)                                           # < 2d
def test_tiled_kernel_matches_oracle(moduli, d, lo, periods, extra,
                                     fill_periods):
    # the interior [lo + d, hi - d) spans `periods` periods plus `extra`
    # points, so its length crosses 0, one period and the two-period
    # threshold for tiling; lo is rarely a multiple of the period, and the
    # whole periods are written 1, 2 or the default number at a time
    P = math.lcm(*moduli)
    hi = lo + max(0, periods * P + 2 * d + extra)
    want = oracle_block(moduli, d, lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocksets, "_FILL_PERIODS", fill_periods)
        blk = np.empty(len(want), dtype=np.int64)
        Block(moduli, d, lo, hi).fill(blk)
        assert blk.tolist() == want
        # a slice of any other size is not filled exactly
        for size in (len(want) - 1, len(want) + 1):
            if size >= 0:
                with pytest.raises(ValueError, match="block fill|filled"):
                    Block(moduli, d, lo, hi).fill(
                        np.empty(size, dtype=np.int64))
        got = survivors_by_progression(moduli, d, lo, hi)
    for q, arr in zip(moduli, got):
        # a survivor is a multiple of exactly one modulus
        assert arr.tolist() == [n for n in want if n % q == 0], q
    assert block_count(moduli, d, lo, hi) == len(want)
    # the rule is P-periodic, so shifting the block by a multiple of P
    # shifts its survivors; the last shift ends the block near MAX_BETA
    for shift in (P, (MAX_BETA - hi) // P * P):
        assert block_count(moduli, d, lo + shift, hi + shift) == len(want)
        moved = survivors_by_progression(moduli, d, lo + shift, hi + shift)
        assert [(a - shift).tolist() for a in moved] == \
            [a.tolist() for a in got]


@pytest.mark.parametrize("fill_periods", [1, 2, blocksets._FILL_PERIODS])
def test_build_store_merges_progressions(monkeypatch, demo_ledger,
                                         fill_periods):
    # each block is filled sorted into its slice; merging the per-modulus
    # arrays of every block gives the same array
    monkeypatch.setattr(blocksets, "_FILL_PERIODS", fill_periods)
    store = build_store(demo_ledger)
    merged = np.sort(np.concatenate([
        arr for blk in demo_ledger.blocks[:store.n_blocks]
        for arr in survivors_by_progression(blk.primes, blk.d,
                                            blk.beta_prev, blk.beta)]))
    assert np.array_equal(store.elements, merged)
    assert [store.block(m).size for m in range(1, store.n_blocks + 1)] == \
        [blk.count for blk in demo_ledger.blocks[:store.n_blocks]]


def test_build_store_lays_out_each_block_once(monkeypatch, demo_ledger):
    # the rule runs once per end and once for the period of each block:
    # the layout that sizes a block's slice is the one that fills it
    calls = []
    rule = blocksets._rule

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(blocksets, "_rule", counted)
    store = build_store(demo_ledger)
    assert store.n_blocks == 5
    assert len(calls) == 3 * store.n_blocks


# ---------------------------------------------------------------------------
# store construction and counting


def toy_store():
    """Block 1 = [0, 15), block 2 = the toy {3,5}, d=1 construction."""
    elems = block_elements((3, 5), 1, 15, 45)
    return SequenceStore((0, 15, 45), np.concatenate([np.arange(15), elems]))


def test_count_range_toy():
    store = toy_store()
    assert store.count_range(15, 30) == 2          # elements 18 and 27
    assert store.count_range(7, 7) == 0
    assert store.count_range(0, 15) == 15          # first block is everything
    with pytest.raises(OutOfBuiltRange):
        store.count_range(0, 46)
    with pytest.raises(ValueError):
        store.count_range(5, 3)


def test_store_demo_first_block(demo_ledger, demo_store):
    b1, beta1 = demo_store.block(1), demo_store.betas[1]
    assert beta1 == demo_ledger.blocks[0].beta
    assert list(b1[:4]) == [0, 1, 2, 3]
    assert b1.size == beta1
    # n_k = k - 1 on the first block
    assert nk(demo_store, 1) == 0
    assert nk(demo_store, beta1) == beta1 - 1


def test_store_counts_match_ledger(demo_ledger, demo_store):
    for m in range(1, 6):
        assert demo_store.block(m).size == demo_ledger.blocks[m - 1].count
        assert nbar_block(demo_store, m) == demo_ledger.nbar[m]


def test_build_store_rejects_empty_interval():
    # endpoints strictly increase: a block [20, 20) is no block
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=20, count=20)
    b2 = BlockParams(m=2, beta_prev=20, primes=(3, 5),
                     d=2, gamma=F(1, 5), beta=20, count=0)
    led = Ledger(constants=tab, blocks=(b1, b2))
    with pytest.raises(ValueError, match="strictly increase"):
        build_store(led)


def test_build_store_rejects_gap_between_blocks():
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=30, primes=(3, 5),
                     d=1, gamma=F(1, 5), beta=60, count=4)
    led = Ledger(constants=tab, blocks=(b1, b2))
    with pytest.raises(ValueError, match="beta_1 = 15"):
        build_store(led)


@pytest.mark.parametrize("betas, elements, what", [
    ((1, 15), [3], "beta_0 = 0"),
    ((0,), [], "beta_0 = 0"),
    ((0, 15, 15), [3], "strictly increase"),
    ((0, 15, 10), [3], "strictly increase"),
    ((0, 15), [-1, 3], r"lie in \[0, 15\)"),
    ((0, 15), [3, 15], r"lie in \[0, 15\)"),
    ((0, 15), [3, 3], "strictly increasing"),
    ((0, 15), [5, 3], "strictly increasing"),
])
def test_store_rejects_bad_input(betas, elements, what):
    with pytest.raises(ValueError, match=what):
        SequenceStore(betas, np.array(elements, dtype=np.int64))


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
def test_store_order_checked_across_chunks(monkeypatch, chunk):
    # the order is checked a chunk of gaps at a time; a repeat at any place,
    # on either side of a chunk boundary, is refused
    monkeypatch.setattr(sequence, "_WINDOW_CHUNK", chunk)
    elems = np.arange(0, 20, 2)
    SequenceStore((0, 20), elems)
    for i in range(elems.size - 1):
        bad = elems.copy()
        bad[i + 1] = bad[i]
        with pytest.raises(ValueError, match="strictly increasing"):
            SequenceStore((0, 20), bad)


def test_store_blocks_are_slices_of_one_array():
    store = toy_store()
    assert store.n_blocks == 2
    assert list(store.block(2)) == [18, 27, 33, 42]
    assert np.shares_memory(store.block(2), store.elements)
    assert nbar_block(store, 1) == 15 and nbar_block(store, 2) == 19
    with pytest.raises(OutOfBuiltRange):
        store.block(3)


def test_block_of_at_endpoints():
    store = toy_store()
    assert store.block_of(0) == 1
    assert store.block_of(14) == 1          # beta_1 - 1
    assert store.block_of(15) == 2          # beta_1
    assert store.block_of(44) == 2          # beta_2 - 1
    for n in (-1, 45):                      # before 0, at the horizon
        with pytest.raises(OutOfBuiltRange):
            store.block_of(n)


def test_verify_block_rejects_endpoint_mismatch():
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, primes=(3, 5),
                     d=1, gamma=F(1, 5), beta=60, count=5)
    led = Ledger(constants=tab, blocks=(b1, b2))
    with pytest.raises(ValueError, match="ledger row"):
        verify_block(led, toy_store(), 2)


# ---------------------------------------------------------------------------
# per-window density bounds


def test_verify_blocks_demo(demo_ledger, demo_store):
    for m in range(2, 6):
        rep = verify_block(demo_ledger, demo_store, m)
        gamma = demo_ledger.blocks[m - 1].gamma
        assert rep.ok
        assert rep.n_windows > 0
        assert 1 - gamma < rep.min_ratio <= rep.max_ratio < 1
        assert rep.min_gap >= demo_ledger.blocks[m - 1].d
        assert rep.spacing_ok


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_verify_block_window_chunks(monkeypatch, demo_ledger, demo_store,
                                    chunk):
    # windows counted and gaps taken a few at a time give the reports of one
    # pass; block 1 has one window per integer.  The store is built again
    # under the small chunk, because a store takes its gaps once
    want = [verify_block(demo_ledger, demo_store, m) for m in range(1, 6)]
    summaries = block_summaries(demo_store)
    monkeypatch.setattr(sequence, "_WINDOW_CHUNK", chunk)
    store = SequenceStore(demo_store.betas, demo_store.elements)
    assert [verify_block(demo_ledger, store, m) for m in range(1, 6)] == want
    assert block_summaries(store) == summaries


def test_gaps_taken_once_per_store(monkeypatch, demo_ledger, demo_store):
    # verify_block, gap_profile and block_summaries all read one pass over
    # each block's gaps
    calls = []
    argmin_gap = sequence._argmin_gap

    def counted(elems, lo, hi):
        calls.append((lo, hi))
        return argmin_gap(elems, lo, hi)

    monkeypatch.setattr(sequence, "_argmin_gap", counted)
    store = SequenceStore(demo_store.betas, demo_store.elements)
    for _ in range(2):
        for m in range(1, 6):
            verify_block(demo_ledger, store, m)
        gap_profile(store)
        block_summaries(store)
    bounds = store.offsets.tolist()
    assert calls == [(lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]


def test_window_counts_are_flat_inside_blocks(demo_ledger, demo_store):
    # interior aligned windows all hold the same survivor count
    for m in (2, 3, 5):
        rep = verify_block(demo_ledger, demo_store, m)
        assert rep.min_ratio == rep.max_ratio


def test_k1_edge_case_flagged():
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=14, count=14)
    b2 = BlockParams(m=2, beta_prev=14, primes=(7,),
                     d=2, gamma=F(1, 5), beta=70, count=8)
    led = Ledger(constants=tab, blocks=(b1, b2))
    elems = block_elements((7,), 2, 14, 70)
    store = SequenceStore((0, 14, 70), np.concatenate([np.arange(14), elems]))
    rep = verify_block(led, store, 2)
    assert rep.k1_edge
    assert rep.min_ratio == rep.max_ratio == 1     # no deletion possible
    assert rep.upper_ok                            # waived for K = 1


def test_toy_block_ratio_fails_lower_bound():
    # period 15, d=1 toy: 4 survivors against p*Q = 8 per period
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, primes=(3, 5),
                     d=1, gamma=F(1, 5), beta=45, count=4)
    led = Ledger(constants=tab, blocks=(b1, b2))
    store = toy_store()
    rep = verify_block(led, store, 2)
    assert rep.min_ratio == F(2, 8)    # window [15, 30) holds 18 and 27
    assert not rep.lower_ok


def test_spacing_flags_element_near_left_endpoint():
    # with d = 2 the positions beta_1 and beta_1 + 1 must stay empty
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, primes=(3, 5),
                     d=2, gamma=F(1, 5), beta=45, count=4)
    led = Ledger(constants=tab, blocks=(b1, b2))
    for first, ok in ((16, False), (17, True)):
        elems = np.concatenate([np.arange(15), [first, 27, 33, 42]])
        rep = verify_block(led, SequenceStore((0, 15, 45), elems), 2)
        assert rep.spacing_ok is ok, first


# ---------------------------------------------------------------------------
# per-block count bounds


def test_count_bounds_demo(demo_ledger, demo_store):
    recs = count_bounds_check(demo_ledger, demo_store)
    assert len(recs) == 5
    assert all(r["ok"] for r in recs)
    assert all(g["f4bb"] for r in recs for g in r["grid"])


def test_window_count_estimates_every_horizon(demo_ledger, demo_store):
    # (1-gamma)(N - beta_prev - p) Q < count(beta_prev, N) < (N - beta_prev + p) Q
    # for every single N in every block, via integer cross-multiplication
    for m in range(1, demo_store.n_blocks + 1):
        blk = demo_ledger.blocks[m - 1]
        lo, hi = demo_store.betas[m - 1], demo_store.betas[m]
        elems = demo_store.block(m)
        S = sum(blk.p // q for q in blk.primes)   # p * Q, an integer
        gnum, gden = (1 - blk.gamma).numerator, (1 - blk.gamma).denominator
        Ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
        counts = np.searchsorted(elems, Ns, side="left") \
            - np.searchsorted(elems, lo, side="left")
        rel = Ns - lo
        lower_ok = gnum * S * (rel - blk.p) < gden * blk.p * counts
        upper_ok = blk.p * counts < S * (rel + blk.p)
        assert lower_ok.all(), m
        assert upper_ok.all(), m


def test_count_bounds_flag_corruption(demo_ledger, demo_store):
    # deleting two thirds of a block must break its lower density records
    blocks = [demo_store.block(m) for m in range(1, demo_store.n_blocks + 1)]
    blocks[2] = blocks[2][::3]
    corrupt = SequenceStore(demo_store.betas, np.concatenate(blocks))
    recs = count_bounds_check(demo_ledger, corrupt)
    assert not recs[2]["f4aa"]
    assert not recs[2]["ok"]
    assert any(not g["f6aa"] for g in recs[2]["grid"])
    assert recs[1]["ok"]


# ---------------------------------------------------------------------------
# gaps and density


def test_gap_profile(demo_ledger, demo_store):
    prof = gap_profile(demo_store)
    by_m = {m: g for m, _, g in prof}
    assert by_m[1] == 1
    for m in range(2, 6):
        assert by_m[m] >= demo_ledger.blocks[m - 1].d


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_gap_profile_chunks_match_whole_array(monkeypatch, demo_store, chunk):
    # block 3's four gaps of 2 tie across every chunk boundary and the first
    # must win; block 2's least gap is 9 -> 10, the one into block 3
    ties = SequenceStore((0, 4, 10, 20, 24, 28), [0, 2, 3, 5, 7, 9, 10, 12,
                                                  14, 16, 18, 21, 23, 24, 26])
    want = [gap_profile_whole(s) for s in (demo_store, ties)]
    assert want[1] == [(1, 2, 1), (2, 6, 1), (3, 7, 2), (4, 13, 1), (5, 14, 2)]
    monkeypatch.setattr(sequence, "_WINDOW_CHUNK", chunk)
    assert [gap_profile(SequenceStore(s.betas, s.elements))
            for s in (demo_store, ties)] == want


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(st.integers(1, 3), max_size=40),
       cuts=st.lists(st.integers(0, 130), max_size=6),
       chunk=st.sampled_from((1, 2, 3)))
@example(gaps=[2, 2, 2, 2], cuts=[5], chunk=2)
def test_gap_profile_chunks_match_whole_array_random(gaps, cuts, chunk):
    # gaps from {1, 2, 3} tie often; empty blocks and a last block with no
    # trailing gap come up too.  In the example, block 1's own least gap
    # ties its trailing gap 4 -> 6, and keeps the earlier place
    elems = np.cumsum([0] + gaps)
    betas = sorted({0, *cuts, int(elems[-1]) + 1})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_WINDOW_CHUNK", chunk)
        store = SequenceStore(betas, elems)
        assert gap_profile(store) == gap_profile_whole(store)
        assert [s["min_gap"] for s in block_summaries(store)] == [
            int(np.diff(store.block(m)).min()) if store.block(m).size >= 2
            else None for m in range(1, store.n_blocks + 1)]


def test_min_gap_grows_block_to_block(demo_store):
    gaps = [g for _, _, g in gap_profile(demo_store)]
    assert gaps == sorted(gaps)
    assert gaps[-1] > gaps[0]


def test_banach_density_decreasing(demo_store):
    vals = [banach_density(demo_store, L) for L in (10**3, 10**4, 10**5, 10**6)]
    assert vals[0] == 1                     # a window inside the first block
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_banach_density_full_window(demo_store):
    d = banach_density(demo_store, demo_store.horizon)
    assert d == F(demo_store.total, demo_store.horizon)
    with pytest.raises(WindowTooLarge):
        banach_density(demo_store, demo_store.horizon + 1)


def test_banach_density_matches_brute_force():
    # every window [a, a+L) inside [0, beta_M), including the last one when
    # its start is not an element, and stores with no element before it
    rng = SplitMix64(0xBA7C)
    cases = [((0, 10), [0, 8, 9], 3), ((0, 5, 20), [9, 12], 15)]
    for _ in range(40):
        h = rng.randint(2, 40)
        elems = [n for n in range(h) if rng.randint(0, 3) == 0]
        cases.append(((0, h), elems, rng.randint(1, h)))
    for betas, elems, L in cases:
        store = SequenceStore(betas, np.array(elems, dtype=np.int64))
        want = max(sum(a <= n < a + L for n in elems)
                   for a in range(betas[-1] - L + 1))
        assert banach_density(store, L) == F(want, L), (betas, elems, L)


@pytest.mark.parametrize("L", [1, 7, 10**3, 10**4, 10**5, 10**6, "horizon"])
def test_banach_density_matches_all_starts_on_demo(demo_store, L):
    L = demo_store.horizon if L == "horizon" else L
    assert banach_density(demo_store, L) == \
        banach_density_all_starts(demo_store, L)


def random_store(rng):
    """A few blocks: a dense first block, then sparser ones whose gaps grow,
    the shape in which whole buckets of window starts can be skipped."""
    betas, elems = [0], []
    for m in range(1, rng.randint(2, 5) + 1):
        lo = betas[-1]
        hi = lo + rng.randint(1, 3000)
        gap = 1 if m == 1 else rng.randint(1, 40 * m)
        n = lo + rng.randint(0, gap - 1)
        while n < hi:
            if rng.randint(0, 7):           # an occasional hole
                elems.append(n)
            n += rng.randint(1, gap)
        betas.append(hi)
    return SequenceStore(betas, np.array(elems, dtype=np.int64))


@pytest.mark.parametrize("scale", [1e-9, 1, 8, 10**9])
def test_banach_density_matches_all_starts_on_random_stores(monkeypatch,
                                                            scale):
    # every bucket size in [1, n] must give the exact maximum: scale 1e-9
    # makes each start its own bucket, so the maximum comes from the bucket
    # bounds alone; 1 is the ceil(sqrt(n)) buckets banach_density takes; 10**9
    # makes one bucket, whose every start is counted once it is hot
    size = sequence._bucket_size
    monkeypatch.setattr(sequence, "_bucket_size", lambda n: min(
        n, max(1, math.ceil(scale * size(n)))))
    rng = SplitMix64(0xB0C7)
    for _ in range(150):
        store = random_store(rng)
        h = store.horizon
        for L in {1, 2, rng.randint(1, h), rng.randint(1, max(1, h // 10)),
                  max(1, h // 2), h}:
            assert banach_density(store, L) == \
                banach_density_all_starts(store, L), (store.betas, L)


def _spy_find(monkeypatch):
    """The number of keys of each sequence._find call, in call order."""
    sizes, find = [], sequence._find

    def spy(elems, keys):
        sizes.append(np.size(keys))
        return find(elems, keys)

    monkeypatch.setattr(sequence, "_find", spy)
    return sizes


def _buckets(store, L):
    """banach_density's buckets, from np.searchsorted: the number of
    element starts n, the bucket size ceil(sqrt(n)), the largest window at
    [0, L), the last window or a bucket's first start, and each bucket's
    bound min(L, count of [first start, last start + L))."""
    elems, last = store.elements, store.horizon - L
    n = int(np.searchsorted(elems, last, side="right"))
    b = math.isqrt(n - 1) + 1
    first = np.arange(0, n, b)
    lasts = np.minimum(first + b, n) - 1
    lb = max(store.count_range(0, L), store.count_range(last, store.horizon),
             int((np.searchsorted(elems, elems[first] + L) - first).max()))
    bound = np.minimum(np.searchsorted(elems, elems[lasts] + L) - first, L)
    return n, b, lb, bound


@pytest.mark.parametrize("q", [2, 7, 30])
def test_banach_density_counts_every_start_when_every_bucket_is_hot(
        monkeypatch, q):
    # on the multiples of q every bucket's range holds more than a window
    # can, so every bucket is hot and every start is counted
    sizes = _spy_find(monkeypatch)
    store = SequenceStore((0, 5000), np.arange(0, 5000, q, dtype=np.int64))
    for L in (q + 1, 3 * q - 1, 1000, 2501):
        n, b, lb, bound = _buckets(store, L)
        assert (bound > lb).all()
        del sizes[:]
        got = banach_density(store, L)
        assert sizes[:2] == [4, 2 * bound.size] and sum(sizes[2:]) == n
        assert got == banach_density_all_starts(store, L) == F(-(-L // q), L)


@pytest.mark.parametrize("size,L", [(10, 20), (30, 31), (3, 5), (1, 2)])
def test_banach_density_counts_no_bucket_when_none_is_hot(monkeypatch, size,
                                                          L):
    # `size` clusters of `size` consecutive integers, one per bucket and
    # more than L apart: each bucket's range holds its cluster alone, as its
    # first window does, so no bucket is hot and none is counted
    sizes = _spy_find(monkeypatch)
    elems = (100 * np.arange(size)[:, None] + np.arange(size)).ravel()
    store = SequenceStore((0, 100 * size), elems)
    n, b, lb, bound = _buckets(store, L)
    assert (n, b, lb) == (elems.size, size, size) and (bound == lb).all()
    del sizes[:]
    got = banach_density(store, L)
    assert sizes == [4, 2 * size]
    assert got == banach_density_all_starts(store, L) == F(size, L)


def test_banach_density_searches_only_hot_buckets(monkeypatch):
    # every integer of [0, 10^6): the window [0, L) holds L, so no bucket is
    # searched at any L; demo h10: two keys per bucket and one per start of
    # each hot bucket, never more than 2 ceil(sqrt(n)) at a time
    sizes = _spy_find(monkeypatch)
    store = SequenceStore((0, 10**6), np.arange(10**6, dtype=np.int64))
    for L in (1, 1000, 12345, 10**6):
        del sizes[:]
        assert banach_density(store, L) == 1 and sizes == [4]
    store = build_store(build_ledger("demo", 10))
    searched = 0
    L = 1000
    while L <= store.horizon:
        n, b, lb, bound = _buckets(store, L)
        hot = int(np.count_nonzero(bound > lb))
        del sizes[:]
        got = banach_density(store, L)
        assert sum(sizes) <= 4 + 2 * b + b * hot, L
        assert max(sizes) <= 2 * b, L
        searched += len(sizes) > 2
        assert got == banach_density_all_starts(store, L)
        L *= 10
    assert searched


def test_banach_density_without_element_starts():
    # no element lies at or before beta_M - L: only the last window counts
    rng = SplitMix64(0xE4D7)
    cases = [((0, 10), [], 4), ((0, 10), [9], 3), ((0, 50, 60), [51, 55], 12)]
    for _ in range(100):
        h = rng.randint(2, 500)
        L = rng.randint(1, h)
        tail = range(h - L + 1, h)
        cases.append(((0, h), [n for n in tail if rng.randint(0, 2) == 0], L))
    for betas, elems, L in cases:
        store = SequenceStore(betas, np.array(elems, dtype=np.int64))
        assert banach_density(store, L) == F(len(elems), L) == \
            banach_density_all_starts(store, L), (betas, elems, L)


def test_aligned_window_density_bounded_by_Q(demo_ledger, demo_store):
    # inside block m every aligned period window holds fewer than p*Q points
    for m in (2, 4):
        blk = demo_ledger.blocks[m - 1]
        lo, hi = demo_store.betas[m - 1], demo_store.betas[m]
        edges = lo + blk.p * np.arange((hi - lo) // blk.p + 1, dtype=np.int64)
        counts = np.diff(np.searchsorted(demo_store.block(m), edges))
        assert F(int(counts.max()), blk.p) <= blk.Q


def test_store_global_monotone(demo_store):
    assert (np.diff(demo_store.elements) > 0).all()
    assert demo_store.total == sum(demo_store.block(m).size
                                  for m in range(1, demo_store.n_blocks + 1))


def test_block_summaries_schema(demo_store):
    summ = block_summaries(demo_store)
    assert [s["m"] for s in summ] == [1, 2, 3, 4, 5]
    assert set(summ[0]) == {"m", "beta_prev", "beta", "size", "min_gap"}


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_write_elements_chunks(tmp_path, monkeypatch, chunk):
    # the text does not depend on how many elements are formatted at a time
    monkeypatch.setattr(sequence, "_WRITE_CHUNK", chunk)
    store = toy_store()
    path = tmp_path / "seq.txt"
    write_elements(store, path)
    assert path.read_text() == "".join(f"{n}\n" for n in range(15)) \
        + "18\n27\n33\n42\n"


def test_write_elements_every_digit_count(tmp_path, demo_store):
    # the text equals one f-string per element, across every width from 1
    # to 19 digits, near the largest allowed endpoint, and on a full store
    values = sorted({0, *(10**k + j for k in range(1, 19) for j in (-1, 0, 1)),
                     MAX_BETA - 2, MAX_BETA - 1})
    path = tmp_path / "seq.txt"
    for store in (SequenceStore((0, MAX_BETA), np.array(values, dtype=np.int64)),
                  demo_store):
        write_elements(store, path)
        assert path.read_bytes() == "".join(
            f"{n}\n" for n in store.elements.tolist()).encode()


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_write_elements_dense_runs(tmp_path, monkeypatch, chunk):
    # runs of consecutive rows around every 10^k, from 1- to 3-digit rows up
    # to 19-digit rows below MAX_BETA: a byte that one row's store puts on a
    # neighbouring row changes the text
    values = sorted({n for k in range(1, 19)
                     for n in range(max(0, 10**k - 150), 10**k + 150)}
                    | set(range(MAX_BETA - 150, MAX_BETA)))
    monkeypatch.setattr(sequence, "_WRITE_CHUNK", chunk)
    path = tmp_path / "seq.txt"
    write_elements(SequenceStore((0, MAX_BETA),
                                 np.array(values, dtype=np.int64)), path)
    assert path.read_bytes() == "".join(f"{n}\n" for n in values).encode()


# values at the edges of a digit count (10^k - 1, 10^k, 10^k + 1) and of
# a four-digit group (a multiple of 10^(4g) plus 0, 1, 9998 or 9999)
_edge_values = st.one_of(
    st.integers(0, MAX_BETA - 1),
    st.builds(lambda k, j: 10**k + j, st.integers(0, 18), st.integers(-1, 1)),
    st.builds(lambda g, top, low: top * 10**(4 * g) + low,
              st.integers(1, 4), st.integers(0, 10**4),
              st.sampled_from([0, 1, 9998, 9999])),
).filter(lambda n: 0 <= n < MAX_BETA)


# 1 << 16 rows hold every run of at most 40 values, as any larger chunk does
@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
@settings(max_examples=60, deadline=None)
@given(values=st.lists(_edge_values, max_size=40, unique=True))
def test_write_elements_matches_fstrings(tmp_path_factory, chunk, values):
    elems = np.array(sorted(values), dtype=np.int64)
    path = tmp_path_factory.mktemp("write") / "seq.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_WRITE_CHUNK", chunk)
        write_elements(SequenceStore((0, MAX_BETA), elems), path)
    assert path.read_bytes() == "".join(f"{n}\n" for n in sorted(values)).encode()


# tracemalloc peak, above the store, of writing the demo h10 sequence and
# checking its blocks: 1.0 MB with 2^16-gap window chunks (two chunks of
# gaps meet at each rebinding) and 2^14-row write chunks; 2.0 MB with
# 2^17-gap window chunks, 2.6 MB with 2^16-row write chunks and 7.9 MB with
# 2^20-gap window chunks.  A bound of 1.5 MB lets no doubling of the window
# chunk and no fourfold write chunk pass unseen.  The store's 1,689,325
# elements are 6.4 MB as int32, so a search key of another dtype, which
# makes NumPy convert the whole array, breaks the bound too
SEQUENCE_PEAK_MB = 1.5


def test_sequence_passes_stay_within_their_memory_bound(tmp_path):
    ledger = build_ledger("demo", 10)
    store = build_store(ledger)
    assert store.elements.dtype == np.int32 and store.elements.itemsize == 4
    tracemalloc.start()
    try:
        write_elements(store, tmp_path / "seq.txt")
        block_summaries(store)
        gap_profile(store)
        for m in range(1, store.n_blocks + 1):
            verify_block(ledger, store, m)
        count_bounds_check(ledger, store)
        # every window length verify reports
        L = 1000
        while L <= store.horizon:
            banach_density(store, L)
            L *= 10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SEQUENCE_PEAK_MB * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_build_store_partial(demo_ledger):
    store3 = build_store(demo_ledger, through=3)
    assert store3.horizon == demo_ledger.blocks[2].beta
    assert store3.n_blocks == 3


def test_build_store_requires_closed_blocks(demo_ledger):
    from primegrid.constants import demo_constants as dc
    from primegrid.ledger import new_ledger
    from primegrid.sequence import LedgerIncomplete

    with pytest.raises(LedgerIncomplete):
        build_store(new_ledger(dc()))
    with pytest.raises(LedgerIncomplete):
        build_store(demo_ledger, through=9)


@settings(max_examples=80, deadline=None)
@given(
    qs=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), min_size=2, max_size=3,
                unique=True),
    d=st.integers(1, 4),
    periods=st.integers(1, 4),
)
def test_survivor_gaps_and_left_emptiness(qs, d, periods):
    # within any block whose left endpoint is a common multiple: survivors
    # keep gaps above d and the first d positions stay empty
    qs = tuple(sorted(qs))
    if d >= min(qs):
        return
    p = 1
    for q in qs:
        p *= q
    lo, hi = p, p + periods * p
    elems = block_elements(qs, d, lo, hi)
    if len(elems) >= 2:
        assert int(np.diff(elems).min()) > d
    assert not ((elems >= lo) & (elems < lo + d)).any()
    assert list(elems) == oracle_block(qs, d, lo, hi)


def test_int32_and_int64_stores_agree(tmp_path, demo_ledger, demo_store):
    # the same elements in a store whose 2 * beta_M is just below 2^31
    # (int32) and in one at 2^31 (int64): blocks 1..4 of the demo store, then
    # a last block reaching the top, across the 9-to-10-digit edge
    top = 2**30 - 1
    tail = sorted({10**9 - 1, 10**9, 10**9 + 1, top - 1000, top - 3,
                   top - 2, top - 1})
    elems = np.concatenate((demo_store.elements[:demo_store.offsets[4]],
                            np.array(tail)))
    betas = demo_store.betas[:5]
    s32 = SequenceStore(betas + (top,), elems)
    s64 = SequenceStore(betas + (top + 1,), elems)
    assert (sequence.element_dtype(top), sequence.element_dtype(top + 1)) == \
        (np.int32, np.int64)
    assert (s32.elements.dtype, s64.elements.dtype) == (np.int32, np.int64)
    assert np.array_equal(s32.elements, s64.elements)
    texts = []
    for store in (s32, s64):
        write_elements(store, tmp_path / "seq.txt")
        texts.append((tmp_path / "seq.txt").read_bytes())
    assert texts[0] == texts[1] == "".join(
        f"{n}\n" for n in elems.tolist()).encode()
    points = sorted({0, top, *betas, *(n + j for n in elems[::97].tolist()
                                       for j in (-1, 0, 1)), *tail})
    for a, b in zip(points, points[1:] + [top]):
        assert s32.count_range(a, b) == s64.count_range(a, b)
    assert gap_profile(s32) == gap_profile(s64) == gap_profile_whole(s64)
    for L in (1, 1000, 10**5, 10**7, 10**9, top - 1, top):
        assert banach_density(s32, L) == banach_density(s64, L) == \
            banach_density_all_starts(s64, L), L
    for m in range(1, 5):
        assert verify_block(demo_ledger, s32, m) == \
            verify_block(demo_ledger, s64, m) == \
            verify_block(demo_ledger, demo_store, m)


@pytest.mark.parametrize("qs, d", [((1,), 0), ((2, 3), 0), ((3, 5), 1)])
def test_block_fill_ends_at_the_int32_bound(qs, d):
    # a tiled block ending at 2^31, past the largest int32 by one: the
    # periods, computed in the output's dtype, do not wrap.  With the
    # modulus 1 (block 1's) the last value is 2^31 - 1 itself
    hi = 2**31
    lo = hi - 600
    n = block_count(qs, d, lo, hi)
    out32, out64 = np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int64)
    Block(qs, d, lo, hi).fill(out32)
    Block(qs, d, lo, hi).fill(out64)
    assert out32.tolist() == out64.tolist() == oracle_block(qs, d, lo, hi)
    if qs == (1,):
        assert int(out32[-1]) == np.iinfo(np.int32).max
    # one more position would not fit int32
    with pytest.raises(ValueError, match="does not fit int32"):
        Block(qs, d, lo, hi + 1).fill(
            np.empty(block_count(qs, d, lo, hi + 1), dtype=np.int32))
