import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primegrid import blocksets, sequence
from primegrid.blocksets import block_count, fill_block, survivors_by_progression
from primegrid.constants import demo_constants
from primegrid.ledger import MAX_BETA, BlockParams, Ledger
from primegrid.rng import SplitMix64
from primegrid.sequence import (
    OutOfBuiltRange,
    SequenceStore,
    WindowTooLarge,
    banach_density,
    block_summaries,
    build_store,
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
        fill_block(moduli, d, lo, hi, blk)
        assert blk.tolist() == want
        # a slice of any other size is not filled exactly
        for size in (len(want) - 1, len(want) + 1):
            if size >= 0:
                with pytest.raises(ValueError, match="block fill|filled"):
                    fill_block(moduli, d, lo, hi,
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
    b1 = BlockParams(m=1, beta_prev=0, K=1, primes=(1,), p=1, Q=F(1), d=1,
                     gamma=tab.gamma_small, beta=20, count=20)
    b2 = BlockParams(m=2, beta_prev=20, K=2, primes=(3, 5), p=15, Q=F(8, 15),
                     d=2, gamma=F(1, 5), beta=20, count=0)
    led = Ledger(constants=tab, blocks=(b1, b2), nbar=(0, 20, 20))
    with pytest.raises(ValueError, match="strictly increase"):
        build_store(led)


def test_build_store_rejects_gap_between_blocks():
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, K=1, primes=(1,), p=1, Q=F(1), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=30, K=2, primes=(3, 5), p=15, Q=F(8, 15),
                     d=1, gamma=F(1, 5), beta=60, count=4)
    led = Ledger(constants=tab, blocks=(b1, b2), nbar=(0, 15, 19))
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
    b1 = BlockParams(m=1, beta_prev=0, K=1, primes=(1,), p=1, Q=F(1), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, K=2, primes=(3, 5), p=15, Q=F(8, 15),
                     d=1, gamma=F(1, 5), beta=60, count=5)
    led = Ledger(constants=tab, blocks=(b1, b2), nbar=(0, 15, 20))
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
    # pass; block 1 has one window per integer
    want = [verify_block(demo_ledger, demo_store, m) for m in range(1, 6)]
    summaries = block_summaries(demo_store)
    monkeypatch.setattr(sequence, "_WINDOW_CHUNK", chunk)
    assert [verify_block(demo_ledger, demo_store, m)
            for m in range(1, 6)] == want
    assert block_summaries(demo_store) == summaries


def test_window_counts_are_flat_inside_blocks(demo_ledger, demo_store):
    # interior aligned windows all hold the same survivor count
    for m in (2, 3, 5):
        rep = verify_block(demo_ledger, demo_store, m)
        assert rep.min_ratio == rep.max_ratio


def test_k1_edge_case_flagged():
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, K=1, primes=(1,), p=1, Q=F(1), d=1,
                     gamma=tab.gamma_small, beta=14, count=14)
    b2 = BlockParams(m=2, beta_prev=14, K=1, primes=(7,), p=7, Q=F(1, 7),
                     d=2, gamma=F(1, 5), beta=70, count=8)
    led = Ledger(constants=tab, blocks=(b1, b2), nbar=(0, 14, 22))
    elems = block_elements((7,), 2, 14, 70)
    store = SequenceStore((0, 14, 70), np.concatenate([np.arange(14), elems]))
    rep = verify_block(led, store, 2)
    assert rep.k1_edge
    assert rep.min_ratio == rep.max_ratio == 1     # no deletion possible
    assert rep.upper_ok                            # waived for K = 1


def test_toy_block_ratio_fails_lower_bound():
    # period 15, d=1 toy: 4 survivors against p*Q = 8 per period
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, K=1, primes=(1,), p=1, Q=F(1), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, K=2, primes=(3, 5), p=15, Q=F(8, 15),
                     d=1, gamma=F(1, 5), beta=45, count=4)
    led = Ledger(constants=tab, blocks=(b1, b2), nbar=(0, 15, 19))
    store = toy_store()
    rep = verify_block(led, store, 2)
    assert rep.min_ratio == F(2, 8)    # window [15, 30) holds 18 and 27
    assert not rep.lower_ok


def test_spacing_flags_element_near_left_endpoint():
    # with d = 2 the positions beta_1 and beta_1 + 1 must stay empty
    tab = demo_constants()
    b1 = BlockParams(m=1, beta_prev=0, K=1, primes=(1,), p=1, Q=F(1), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, K=2, primes=(3, 5), p=15, Q=F(8, 15),
                     d=2, gamma=F(1, 5), beta=45, count=4)
    led = Ledger(constants=tab, blocks=(b1, b2), nbar=(0, 15, 19))
    for first, ok in ((16, False), (17, True)):
        elems = np.concatenate([np.arange(15), [first, 27, 33, 42]])
        rep = verify_block(led, SequenceStore((0, 15, 45), elems), 2)
        assert rep.spacing_ok is ok, first


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
    assert [gap_profile(s) for s in (demo_store, ties)] == want


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(st.integers(1, 3), max_size=40),
       cuts=st.lists(st.integers(0, 130), max_size=6),
       chunk=st.sampled_from((1, 2, 3)))
def test_gap_profile_chunks_match_whole_array_random(gaps, cuts, chunk):
    # gaps from {1, 2, 3} tie often; empty blocks and a last block with no
    # trailing gap come up too
    elems = np.cumsum([0] + gaps)
    betas = sorted({0, *cuts, int(elems[-1]) + 1})
    store = SequenceStore(betas, elems)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_WINDOW_CHUNK", chunk)
        assert gap_profile(store) == gap_profile_whole(store)


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


@pytest.mark.parametrize("budget", [1e-9, 8, 10**9])
def test_banach_density_matches_all_starts_on_random_stores(monkeypatch,
                                                            budget):
    # budget 1e-9 halves until no bucket is hot, so the maximum comes from
    # the bucket bounds alone; 10**9 counts every hot start after one level
    monkeypatch.setattr(sequence, "_LEVEL_BUDGET", budget)
    rng = SplitMix64(0xB0C7)
    for _ in range(150):
        store = random_store(rng)
        h = store.horizon
        for L in {1, 2, rng.randint(1, h), rng.randint(1, max(1, h // 10)),
                  max(1, h // 2), h}:
            assert banach_density(store, L) == \
                banach_density_all_starts(store, L), (store.betas, L)


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


# values at the edges of a digit count (10^k - 1, 10^k, 10^k + 1) and of
# a four-digit group (a multiple of 10^(4g) plus 0, 1, 9998 or 9999)
_edge_values = st.one_of(
    st.integers(0, MAX_BETA - 1),
    st.builds(lambda k, j: 10**k + j, st.integers(0, 18), st.integers(-1, 1)),
    st.builds(lambda g, top, low: top * 10**(4 * g) + low,
              st.integers(1, 4), st.integers(0, 10**4),
              st.sampled_from([0, 1, 9998, 9999])),
).filter(lambda n: 0 <= n < MAX_BETA)


@pytest.mark.parametrize("chunk", [1, 7, sequence._WRITE_CHUNK])
@settings(max_examples=60, deadline=None)
@given(values=st.lists(_edge_values, max_size=40, unique=True))
def test_write_elements_matches_fstrings(tmp_path_factory, chunk, values):
    elems = np.array(sorted(values), dtype=np.int64)
    path = tmp_path_factory.mktemp("write") / "seq.txt"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequence, "_WRITE_CHUNK", chunk)
        write_elements(SequenceStore((0, MAX_BETA), elems), path)
    assert path.read_bytes() == "".join(f"{n}\n" for n in sorted(values)).encode()


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
