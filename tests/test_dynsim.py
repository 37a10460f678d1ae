import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import dense_orbit, fragile_positions, rotation_at
from primegrid import dynsim
from primegrid.dynsim import (
    BadSpec,
    BernoulliSystem,
    CyclicSystem,
    HorizonExceeded,
    RotationSystem,
    StepObservable,
    TowerTooShort,
    build_tower,
    convergence_report,
    decompose,
    dynamical_mean,
    golden_alpha_fixed,
    indicator,
    sample_at,
    sample_orbit,
    subseq_average,
    subseq_max,
    tower_transfer_check,
)
from primegrid.ledger import build_ledger
from primegrid.rng import SplitMix64, derive_seed
from primegrid.sequence import SequenceStore, build_store
from primegrid.zops import GridContext

# ---------------------------------------------------------------------------
# systems and orbits


def test_rotation_half_alternates():
    sysh = RotationSystem.from_fraction(F(1, 2))
    obs = indicator(F(0), F(1, 2))
    orb = sample_orbit(sysh, 0, 8, obs)
    assert list(orb.at(np.arange(8))) == [1, 0, 1, 0, 1, 0, 1, 0]
    assert list(dense_orbit(sysh, 0, 8, obs)) == [1, 0, 1, 0, 1, 0, 1, 0]
    assert orb.mean_true == F(1, 2)


def test_cyclic_orbit_periodic():
    sys35 = CyclicSystem(35, tuple(1 if r < 7 else 0 for r in range(35)))
    orb = sample_orbit(sys35, 0, 105)
    assert orb.mean_true == F(1, 5)
    vals = orb.at(np.arange(105))
    assert (vals == dense_orbit(sys35, 0, 105)).all()
    assert vals[:35].sum() == 7
    assert (vals[:35] == vals[35:70]).all()


def test_bernoulli_orbit_deterministic_and_unbiased():
    sysb = BernoulliSystem(F(1, 2), seed=99)
    vals = sample_orbit(sysb, 0, 20000).at(np.arange(20000))
    assert (vals == sample_orbit(sysb, 0, 20000).at(np.arange(20000))).all()
    assert abs(vals.mean() - 0.5) < 0.02
    assert sysb.mean == F(1, 2)               # dyadic rate realized exactly


def test_golden_birkhoff_small_deviation():
    # high-precision summation oracle: the Birkhoff average of the indicator
    # of [0, 1/3) after 10^6 steps sits within 5e-6 of 1/3
    vals = sample_at(RotationSystem.golden(), 0, np.arange(10**6), indicator(F(0), F(1, 3)))
    dev = abs(float(F(int(vals.sum()), 10**6)) - 1 / 3)
    assert dev < 5e-6


def test_rotation_precision_vs_256bit_oracle():
    # re-deriving the orbit at doubled precision flips no indicator value
    # away from breakpoints; no sampled point sits within 1e-12 of one here
    bits = 256
    alpha256 = golden_alpha_fixed(bits)
    sys128 = RotationSystem.golden()
    obs = indicator(F(0), F(1, 2))
    n_max = 20000
    vals = sample_at(sys128, 0, np.arange(n_max), obs)
    fragile = fragile_positions(sys128, 0, np.arange(n_max), obs)
    # x0 = 0 sits exactly on a breakpoint; nothing else comes close
    assert fragile[0] and fragile.sum() == 1
    half = 1 << (bits - 1)
    one = 1 << bits
    cur = 0
    for n in range(n_max):
        if not fragile[n]:
            assert vals[n] == (1 if cur < half else 0), n
        cur = (cur + alpha256) & (one - 1)


def test_fragile_positions_detects_boundary():
    sysr = RotationSystem.from_fraction(F(1, 4))
    obs = indicator(F(0), F(1, 2))
    # the orbit of 0 under +1/4 lands exactly on the breakpoints 0 and 1/2
    mask = fragile_positions(sysr, 0, np.arange(4), obs)
    assert mask[0] and mask[2]
    assert not mask[1] and not mask[3]


STEP3 = StepObservable((F(0), F(1, 3), F(3, 4), F(1)), (F(1, 2), F(-7, 4), F(5, 2)))


def test_sample_at_matches_dense():
    cases = [
        (RotationSystem.golden(), F(1, 7), indicator(F(1, 4), F(2, 3))),
        (RotationSystem.golden(), F(2, 9), STEP3),
        (RotationSystem.from_fraction(F(5, 13)), 0, STEP3),
        (CyclicSystem(35, tuple(r % 3 for r in range(35))), 33, None),
        (BernoulliSystem(F(1, 3), seed=5), 0, None),
        (BernoulliSystem(F(1), seed=5), 0, None),
        (BernoulliSystem(F(0), seed=5), 0, None),
    ]
    for system, x0, obs in cases:
        dense = dense_orbit(system, x0, 3000, obs)
        pos = np.array([0, 1, 17, 100, 999, 2998], dtype=np.int64)
        got = sample_at(system, x0, pos, obs)
        assert got.dtype == dense.dtype, system
        assert (got == dense[pos]).all(), system
        pos = np.arange(0, 3000, 7)
        assert (sample_orbit(system, x0, 3000, obs).at(pos) == dense[pos]).all(), system


ONE = 1 << 128
I64 = 1 << 63


def _near(*centres, spread=4):
    return st.sampled_from(centres).flatmap(
        lambda c: st.integers(c - spread, c + spread))


# positions: past the 32-bit limb (2^32), up to the largest block endpoint
# (2^62) and the int64 ends, and where a limb's partial products carry
# (low limb 2^32 - 1 under any high limb)
POSITIONS = st.one_of(
    _near(0, 1 << 32, 1 << 62, I64 - 5, -I64 + 4),
    st.integers(0, (1 << 30) - 1).map(lambda h: (h << 32) | 0xFFFFFFFF),
    st.integers(-I64, I64 - 1),
)
# words near 0 and 2^64 - 1 in either half, and anything else in [1, 2^128)
WORDS = st.one_of(
    st.tuples(_near(4, 1 << 32, (1 << 64) - 5),
              _near(4, 1 << 32, (1 << 64) - 5)).map(
        lambda w: (w[0] << 64) | w[1]),
    st.integers(1, ONE - 1),
)


@settings(max_examples=200, deadline=None)
@given(alpha=WORDS, x0f=WORDS, positions=st.lists(POSITIONS, max_size=12),
       cut=st.integers(0, 11), ints=st.booleans(), past_end=st.booleans(),
       data=st.data())
def test_rotation_words_match_128bit_loop(alpha, x0f, positions, cut, ints,
                                          past_end, data):
    system = RotationSystem(alpha % ONE or 1)
    x0 = F(x0f % ONE, ONE)
    one_point = [(x0f % ONE + n * system.alpha_fixed) % ONE
                 for n in positions[cut:cut + 1]]
    # thresholds one unit apart at an orbit point, so ties are compared
    # exactly; past_end adds a break whose threshold rounds up to 2^128
    ts = {t for x in one_point for t in (x, x + 1) if 0 < t < ONE}
    ts |= set(data.draw(st.lists(st.integers(1, ONE - 1), max_size=3)))
    breaks = [F(0)] + [F(t, ONE) for t in sorted(ts)]
    if past_end:
        breaks.append(1 - F(1, 3 * ONE))
    breaks.append(F(1))
    values = data.draw(st.lists(
        st.integers(-9, 9) if ints else st.fractions(-9, 9, max_denominator=8),
        min_size=len(breaks) - 1, max_size=len(breaks) - 1))
    obs = StepObservable(tuple(breaks), tuple(F(v) for v in values))
    if past_end:
        assert obs.thresholds_fixed()[-2:] == [ONE, ONE]
    got = sample_at(system, x0, np.array(positions, dtype=np.int64), obs)
    want = rotation_at(system, x0, positions, obs)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("values,dtype", [((F(0), F(1)), np.int64),
                                          ((F(0), F(1, 2)), np.float64)])
def test_rotation_empty_positions(values, dtype):
    obs = StepObservable((F(0), F(1, 3), F(1)), values)
    got = sample_at(RotationSystem.golden(), F(1, 7), [], obs)
    assert got.dtype == dtype and got.shape == (0,)


def test_rotation_chunks_join(monkeypatch):
    # positions spanning several passes give what one pass gives
    pos = np.arange(0, 10**12, 10**12 // 1000, dtype=np.int64)
    want = sample_at(RotationSystem.golden(), F(1, 7), pos, STEP3)
    monkeypatch.setattr(dynsim, "_ROTATION_CHUNK", 64)
    got = sample_at(RotationSystem.golden(), F(1, 7), pos, STEP3)
    assert got.tolist() == want.tolist()
    assert want.tolist() == rotation_at(RotationSystem.golden(), F(1, 7),
                                        pos.tolist(), STEP3).tolist()


def test_sample_at_cyclic_keeps_fractional_table():
    sysc = CyclicSystem(3, (F(1, 2), F(3, 2), F(0)))
    pos = np.arange(4)
    dense = dense_orbit(sysc, 0, 4)
    assert list(dense) == [0.5, 1.5, 0.0, 0.5]
    assert list(sample_at(sysc, 0, pos)) == list(dense)
    assert list(sample_at(sysc, 2, pos)) == list(dense_orbit(sysc, 2, 4))



def test_cyclic_table_array_built_once_and_read_only():
    sysc = CyclicSystem(5, (1, 0, F(1, 2), 0, 1))
    first = sysc.table_array
    assert first.tolist() == [1.0, 0.0, 0.5, 0.0, 1.0]
    assert sample_orbit(sysc, 2, 20).at(np.arange(5)).tolist() == \
        [0.5, 0.0, 1.0, 1.0, 0.0]
    assert sysc.table_array is first and vars(sysc)["table_array"] is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 7
    # sampling reads the cached array, not a new build of the table
    vars(sysc)["table_array"] = np.arange(5) * 10
    assert sample_at(sysc, 0, [1, 3]).tolist() == [10, 30]
    # each system builds its own
    other = CyclicSystem(5, (1, 0, 0, 0, 1))
    assert other.table_array is not first
    assert other.table_array.dtype == np.int64


def _table_array_by_fractions(table):
    # the one-Fraction-per-entry route table_array took before
    if all(F(v).denominator == 1 for v in table):
        return np.array([int(v) for v in table], dtype=np.int64)
    return np.array([float(v) for v in table])


@pytest.mark.parametrize("table", [
    (1, 0, 0, 1, 7), (True, False, 2), (-3, 2**63 - 1, 0),
    (F(1), F(0), F(4)), (F(1, 2), F(0), F(3, 7)),
    (1.0, 0.0, -2.0), (0.5, 1.0, 0.25), (2.0**60, 3.0),
    (1, F(2), 3.0), (1, F(1, 2), 0.75), (2**60 + 1, 2.0), (-1, 2**62 + 1, 0.5),
])
def test_cyclic_table_array_matches_the_fraction_route(table):
    got = CyclicSystem(len(table), table).table_array
    want = _table_array_by_fractions(table)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_bad_specs():
    with pytest.raises(BadSpec):
        RotationSystem.from_fraction(F(3, 2))
    with pytest.raises(BadSpec):
        indicator(F(1, 2), F(1, 2))
    with pytest.raises(BadSpec):
        CyclicSystem(5, (1, 0))
    with pytest.raises(BadSpec):
        StepObservable((F(0), F(1, 2)), (F(1),))
    with pytest.raises(BadSpec):
        sample_orbit(RotationSystem.golden(), 0, 0, indicator(F(0), F(1, 2)))
    # sample_orbit evaluates nothing, but still rejects a bad spec at once
    with pytest.raises(BadSpec):
        sample_orbit(RotationSystem.golden(), 0, 10)
    with pytest.raises(BadSpec):
        sample_orbit(RotationSystem.golden(), F(3, 2), 10, indicator(F(0), F(1, 2)))
    with pytest.raises(BadSpec):
        sample_orbit(CyclicSystem(3, (1, 0, 0)), F(1, 2), 10)
    with pytest.raises(BadSpec):
        BernoulliSystem(F(3, 2), seed=1)


# ---------------------------------------------------------------------------
# subsequence averages


def test_first_block_agreement_exact(demo_store):
    obs = indicator(F(0), F(1, 2))
    orb = sample_orbit(RotationSystem.golden(), 0, 9000, obs)
    dense = dense_orbit(RotationSystem.golden(), 0, 9000, obs)
    beta1 = demo_store.betas[1]
    for N in (1, 2, 17, 1000, beta1):
        a = subseq_average(orb, demo_store, N)
        birkhoff = F(int(dense[:N].sum()), N)
        assert a == birkhoff


def test_constant_observable_average(demo_store):
    orb = sample_orbit(RotationSystem.golden(), 0, demo_store.horizon,
                       indicator(F(0), F(1)))
    for N in (1, 5000, demo_store.horizon):
        assert subseq_average(orb, demo_store, N) == 1


def test_horizon_guard(demo_store):
    orb = sample_orbit(RotationSystem.golden(), 0, 100, indicator(F(0), F(1, 2)))
    with pytest.raises(HorizonExceeded):
        subseq_average(orb, demo_store, 101)


def test_horizon_guard_past_the_store(demo_store):
    # an orbit longer than the store: every average stops at the store's end
    # rather than averaging over fewer horizons than asked
    past = demo_store.horizon + 1
    orb = sample_orbit(RotationSystem.golden(), 0, past, indicator(F(0), F(1, 2)))
    for average in (lambda: subseq_average(orb, demo_store, past),
                    lambda: subseq_max(orb, demo_store, past),
                    lambda: convergence_report(orb, demo_store, [past])):
        with pytest.raises(HorizonExceeded, match="store horizon"):
            average()



# tracemalloc peak of convergence_report on the demo h10 golden rotation, in
# units of 8 bytes per averaged element: 2.0 with the running sum summed into
# its preallocated place (the samples and the sum), 3.0 with a concatenated
# copy of the cumsum.  The bound lets no third whole-sequence array pass
CONVERGENCE_PEAK_WORDS = 2.5


def test_convergence_report_holds_two_sequence_arrays():
    store = build_store(build_ledger("demo", 10))
    orb = sample_orbit(RotationSystem.golden(), 0, store.horizon,
                       indicator(F(0), F(1, 2)))
    k = store.count_range(0, store.horizon)
    tracemalloc.start()
    try:
        rows = convergence_report(orb, store).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[-1].N == store.horizon
    assert peak < CONVERGENCE_PEAK_WORDS * 8 * k, f"{peak / (8 * k):.2f} words"


def test_cyclic_closed_form_block_boundaries(demo_ledger, demo_store):
    # with P equal to the block-2 period and f the indicator of a residue
    # class, the average over any horizon is the count of sequence elements
    # in that class; the two routes must agree exactly
    p2 = demo_ledger.blocks[1].p
    residue = 10
    table = tuple(1 if r == residue else 0 for r in range(p2))
    sysc = CyclicSystem(p2, table)
    orb = sample_orbit(sysc, 0, demo_store.horizon)
    for N in (demo_store.betas[2], demo_store.betas[4]):
        k = demo_store.count_range(0, N)
        direct = sum(1 for e in demo_store.elements[:k] if e % p2 == residue)
        assert subseq_average(orb, demo_store, N) == F(direct, k)


def test_subseq_max_dominates_averages(demo_store):
    orb = sample_orbit(RotationSystem.golden(), F(1, 3), demo_store.horizon,
                       indicator(F(0), F(1, 2)))
    sup = subseq_max(orb, demo_store, demo_store.horizon)
    for N in (10, 8174, 51709, demo_store.horizon):
        assert sup >= abs(subseq_average(orb, demo_store, N))


def test_float_averages_agree_bit_for_bit(demo_store):
    # a float observable: every path reads the same running sum, added in
    # sequence order, so the averages agree to the last bit at every
    # checkpoint (a pairwise sum differs from it at 24 of the 28)
    obs = StepObservable((F(0), F(1, 3), F(1)), (F(1, 10), F(7, 10)))
    orb = sample_orbit(RotationSystem.golden(), F(1, 7), demo_store.horizon, obs)
    samples = orb.at(demo_store.elements)
    assert samples.dtype == np.float64
    rows = convergence_report(orb, demo_store).rows
    assert len(rows) == 28
    sup = subseq_max(orb, demo_store, demo_store.horizon)
    for row in rows:
        a = subseq_average(orb, demo_store, row.N)
        assert type(a) is float
        assert a == row.average
        assert sup >= abs(a)
    assert subseq_average(orb, demo_store, demo_store.betas[5]) == \
        0.5003122596884239


def _late_store():
    """Elements 9 and 12 only: the first block is empty."""
    return SequenceStore((0, 5, 20), np.array([9, 12], dtype=np.int64))


def test_average_zero_before_first_element():
    # horizons before any element average to 0 by convention
    store = _late_store()
    orb = sample_orbit(CyclicSystem(4, (1, 1, 0, 1)), 0, 20)
    assert subseq_average(orb, store, 3) == 0


def test_average_type_follows_sample_dtype():
    # integer samples give exact Fractions, float samples floats, and the
    # empty prefix (N at or before the first element) is no exception
    store = _late_store()
    ints = sample_orbit(CyclicSystem(4, (1, 1, 0, 1)), 0, 20)
    floats = sample_orbit(CyclicSystem(4, (F(1, 2), F(-3, 2), 0, 1)), 0, 20)
    cases = [
        (subseq_average(ints, store, 9), F(0)),
        (subseq_average(ints, store, 20), F(1)),
        (subseq_average(floats, store, 9), 0.0),
        (subseq_average(floats, store, 20), -0.5),
        (subseq_max(ints, store, 3), F(0)),
        (subseq_max(ints, store, 20), F(1)),
        (subseq_max(floats, store, 3), 0.0),
        (subseq_max(floats, store, 20), 1.5),
    ]
    for got, want in cases:
        assert type(got) is type(want) and got == want, (got, want)


@pytest.mark.parametrize("table, want", [
    # (2^54 + 1)/2 and 2^53 round to the same double; the later, larger
    # mean is the maximum
    ((2**53, 2**53 + 1), F(2**54 + 1, 2)),
    # 2^53 + 3 rounds up to 2^53 + 4, while (3 * 2^53 + 10)/3 rounds down
    # to 2^53 + 2: the floats order the two means the wrong way round
    ((2**53 + 3, 2**53 - 3, 2**53 + 10), F(3 * 2**53 + 10, 3)),
])
def test_subseq_max_exact_where_floats_tie_or_invert(table, want):
    P = len(table)
    orb = sample_orbit(CyclicSystem(P, table), 0, P)
    store = SequenceStore((0, P), np.arange(P))
    assert subseq_max(orb, store, P) == want


# ---------------------------------------------------------------------------
# convergence reports


def test_convergence_constant_is_zero_deviation(demo_store):
    orb = sample_orbit(RotationSystem.golden(), 0, demo_store.horizon,
                       indicator(F(0), F(1)))
    rep = convergence_report(orb, demo_store)
    assert all(r.deviation == 0 for r in rep.rows)
    assert rep.trend_slope is None


def test_convergence_golden_demo(demo_store):
    orb = sample_orbit(RotationSystem.golden(), F(1, 7), demo_store.horizon,
                       indicator(F(0), F(1, 2)))
    rep = convergence_report(orb, demo_store)
    assert rep.rows[-1].N == demo_store.horizon
    assert rep.final_deviation < 1e-2
    assert {r.block_m for r in rep.rows} == {1, 2, 3, 4, 5}
    # checkpoints include every block boundary
    Ns = {r.N for r in rep.rows}
    assert all(b in Ns for b in demo_store.betas[1:])


def test_convergence_csv_format(tmp_path, demo_store):
    orb = sample_orbit(RotationSystem.golden(), 0, demo_store.horizon,
                       indicator(F(0), F(1, 2)))
    rep = convergence_report(orb, demo_store, checkpoints=[10, 8174, 51709])
    path = tmp_path / "conv.csv"
    rep.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,A,deviation,block_m"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_identities(demo_ledger):
    values = [F(0), F(1, 2), F(3), F(9000), F(50000)]
    dec = decompose(values, demo_ledger, F(3))
    assert dec.lam_prime == 1
    assert dec.check_identity()
    for m in (1, 2, 3):
        assert all(dec.parts[m][v][0] == 0 for v in dec.values)
    for v in dec.values:
        assert sum(dec.parts[m][v][1] for m in dec.parts) <= 3 * v / dec.lam_prime


def test_decompose_low_case_only(demo_ledger):
    # all scaled values below the lagged count: the middle and high parts stay
    # empty from block 4 on
    dec = decompose([F(1), F(2)], demo_ledger, F(3))
    for m in range(4, 6):
        for v in dec.values:
            low, mid, high = dec.parts[m][v]
            assert (low, mid, high) == (v, 0, 0)


def test_decompose_random_step_functions(demo_ledger):
    rng = SplitMix64(derive_seed(31, "decomp"))
    for trial in range(50):
        k = rng.randint(1, 6)
        values = [F(rng.randint(0, 10**5), rng.randint(1, 9)) for _ in range(k)]
        lam = F(rng.randint(1, 12), rng.randint(1, 4))
        dec = decompose(values, demo_ledger, lam)
        assert dec.check_identity()
        for v in dec.values:
            assert sum(dec.parts[m][v][1] for m in dec.parts) <= 3 * v / dec.lam_prime
            for m in (1, 2, 3):
                assert dec.parts[m][v][0] == 0


def test_decompose_rejects_bad_input(demo_ledger):
    with pytest.raises(BadSpec):
        decompose([F(-1)], demo_ledger, F(3))
    with pytest.raises(BadSpec):
        decompose([F(1)], demo_ledger, F(0))


# ---------------------------------------------------------------------------
# towers and the transfer identity


def test_tower_full_column():
    t = build_tower(360, 360, F(1, 2))
    assert t.covered == 1
    assert list(t.base) == [0]


def test_tower_coverage_fraction():
    k = 10
    t = build_tower(35 * k, 35 * (k - 1), F(1, 5))
    assert t.covered == 1 - F(1, k)


def test_tower_leftover_coverage_rejected():
    # a single 600-level column leaves 40% of Z_1000 uncovered
    with pytest.raises(BadSpec):
        build_tower(1000, 600, F(1, 10))


def test_transfer_identity_exact():
    ctx = GridContext((5, 7))
    table = tuple(1 if (3 * r + 1) % 11 < 4 else 0 for r in range(10**5))
    sysc = CyclicSystem(10**5, table)
    tower = build_tower(10**5, 1000, F(1, 50))
    rep = tower_transfer_check(tower, sysc, ctx, trials=50, horizon=200,
                               seed=20250809)
    assert rep["ok"] and rep["exact_matches"] == 50


def test_transfer_window_guard():
    ctx = GridContext((5, 7))
    table = tuple([1, 0] * 500)
    sysc = CyclicSystem(1000, table)
    tower = build_tower(1000, 250, F(9, 10))
    with pytest.raises(TowerTooShort):
        tower_transfer_check(tower, sysc, ctx, trials=5, horizon=200, seed=1)


def _halves_tower():
    ctx = GridContext((2, 3))
    table = tuple(F(1, 2) if r % 3 else F(5, 2) for r in range(200))
    return ctx, table, build_tower(200, 100, F(1, 2))


def test_transfer_reads_the_table_it_is_given(monkeypatch):
    # a table of halves reaches both routes as halves, not truncated to ints
    ctx, table, tower = _halves_tower()
    seen = set()
    grid_mean_j = dynsim.progression_mean_j

    def spy(phi, *args):
        seen.update(phi.values)
        return grid_mean_j(phi, *args)

    monkeypatch.setattr(dynsim, "progression_mean_j", spy)
    rep = tower_transfer_check(tower, CyclicSystem(200, table), ctx, trials=20,
                               horizon=20, seed=3)
    assert seen == {F(1, 2), F(5, 2)}
    assert rep["ok"] and rep["exact_matches"] == 20


def test_transfer_rejects_a_float_table():
    ctx, table, tower = _halves_tower()
    sysc = CyclicSystem(200, tuple(float(v) for v in table))
    with pytest.raises(TypeError):
        tower_transfer_check(tower, sysc, ctx, trials=5, horizon=20, seed=3)


def test_dynamical_mean_matches_brute():
    ctx = GridContext((3, 5))
    table = tuple((r * r + 2) % 7 % 2 for r in range(3000))
    sysc = CyclicSystem(3000, table)
    x, r, N = 1000, 10 % 15, 37
    lo, hi = -r, ((N + r) // 15) * 15 + 15 - r
    for j, q in enumerate(ctx.primes):
        pts = [table[(x + off) % 3000] for off in range(lo, hi) if off % q == 0]
        assert dynamical_mean(sysc, x, r, ctx, N, j) == F(sum(pts), len(pts))
