import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from primegrid import ledger as ledger_mod
from primegrid.blocksets import block_count
from primegrid.cli import _apply_overrides
from primegrid.constants import (
    Family,
    constants_for,
    default_constants,
    demo_constants,
)
from primegrid.ledger import (
    BlockParams,
    InfeasibleAtScale,
    Ledger,
    LedgerError,
    MissingBlock,
    build_ledger,
    check_constraints,
    extend_ledger,
    extend_to,
    full_report,
    ledger_from_json,
    ledger_to_json,
    load_ledger,
    new_ledger,
    save_ledger,
    structural_report,
    _check,
)
from primegrid.primes import is_prime, next_prime


def rec(report, name):
    matches = [r for r in report.records if r.name == name]
    assert matches, f"no record {name}"
    return matches[0]


# ---------------------------------------------------------------------------
# constant table


def test_default_constants_literal_values():
    tab = default_constants()
    assert tab.gamma_beta == F(1, 1000)
    assert tab.gamma_small == F(1, 8)
    # growth factor on the count in the K-selection rule: 32*10^4*4^(m+1)
    for m in (2, 3, 5):
        assert tab.k_growth.value(m) == 32 * 10**4 * 4 ** (m + 1)
        assert tab.k_threshold.value(m) == F(1, 2 ** (m + 1))
        assert tab.spacing_rhs.value(m) == F(1, 200 * (m + 1))
    assert tab.f3c.value(4) == tab.gamma_beta / 2
    assert tab.f4c_div == F(1, 10**4)
    assert tab.f19_p == F(1, 100)


def test_faithful_gamma_rule_uses_counts():
    tab = default_constants()
    assert tab.gamma(2, 0) == F(1, 8)
    assert tab.gamma(3, 10) == F(1, 8)
    assert tab.gamma(4, 1000) == F(1, 2000 * 5 * 1000)
    with pytest.raises(ValueError):
        tab.gamma(4, 0)


def test_demo_gamma_flat():
    tab = demo_constants()
    assert tab.gamma(2, 0) == F(1, 5)
    assert tab.gamma(7, 10**9) == F(1, 5)
    assert tab.gamma_beta < 1


def test_table_roundtrip_json():
    for profile in ("faithful", "demo"):
        tab = constants_for(profile)
        assert type(tab).from_json(tab.to_json()) == tab


def test_all_table_entries_strictly_positive():
    import dataclasses

    from primegrid.constants import Family

    for profile in ("faithful", "demo"):
        tab = constants_for(profile)
        for field in dataclasses.fields(tab):
            val = getattr(tab, field.name)
            if isinstance(val, Family):
                for m in range(1, 8):
                    assert val.value(m) > 0, (profile, field.name, m)
            elif isinstance(val, F):
                assert val > 0, (profile, field.name)


def _family_fields(tab):
    import dataclasses

    return [(f.name, getattr(tab, f.name)) for f in dataclasses.fields(tab)
            if isinstance(getattr(tab, f.name), Family)]


@pytest.mark.parametrize("profile, overrides", [
    ("faithful", []), ("demo", []),
    ("demo", ["gamma_main=3/7"]), ("faithful", ["gamma_main=1/9"]),
])
def test_family_value_is_the_rational_formula(profile, overrides):
    # one Fraction from the integer powers equals coef * geo^m / (a m + b)
    # taken one Fraction operation at a time
    tab = _apply_overrides(profile, overrides)
    families = _family_fields(tab)
    assert len(families) == 13 + (tab.gamma_main is not None)
    for name, fam in families:
        for m in range(1, 41):
            old = F(fam.coef) * F(fam.geo) ** m / (fam.lin_a * m + fam.lin_b)
            got = fam.value(m)
            assert type(got) is F and got == old, (profile, name, m)
    if overrides:
        assert tab.gamma_main.value(40) == F(overrides[0].split("=")[1])


def test_family_value_rejects_nonpositive_denominator():
    fam = Family(F(1, 3), F(2), lin_a=-1, lin_b=3)
    assert fam.value(2) == F(4, 3)
    with pytest.raises(ValueError, match="nonpositive at m=3"):
        fam.value(3)


# ---------------------------------------------------------------------------
# base case and record layout


def test_base_case_records_pass():
    led = new_ledger(default_constants())
    rep = check_constraints(led, 1)
    assert rep.overall
    assert rec(rep, "base_K").lhs == 1
    assert rec(rep, "base_Q").lhs == 1


@pytest.mark.parametrize("lhs, rhs", [
    (3, 3), (3, F(3)), (F(3), 3), (F(6, 2), 3), (F(1, 2), F(2, 4)), (0, F(0)),
])
def test_check_compares_equal_operands(lhs, rhs):
    for op, expected in (("<", False), (">", False), ("==", True)):
        r = _check("x", lhs, rhs, op)
        assert (r.op, r.satisfied) == (op, expected)
        assert type(r.lhs) is F and type(r.rhs) is F
        assert (r.lhs, r.rhs) == (F(lhs), F(rhs))


def test_check_keeps_fractions_and_prints_as_verify_does():
    half = F(1, 2)
    r = _check("x", half, 1, "<")
    assert r.lhs is half and r.satisfied
    assert (str(r.lhs), str(r.rhs)) == ("1/2", "1")
    r = _check("x", 10**30, F(-7, 3), ">")
    assert (str(r.lhs), str(r.rhs), r.satisfied) == (str(10**30), "-7/3", True)
    assert not _check("x", 2, 1, "<").satisfied
    assert not _check("x", 1, 2, ">").satisfied
    with pytest.raises(KeyError):
        _check("x", 1, 2, "<=")


def test_zero_count_makes_count_records_trivial(faithful_ledger):
    rep = check_constraints(faithful_ledger, 2)
    assert rep.overall
    for name in ("f13", "f15", "d38f1"):
        assert rec(rep, name).lhs == 0


def test_toy_5aa_record_fails():
    # block with primes {3, 5}, d = 2: the deletion margin 2K(d+1)/min q = 4
    # cannot stay below gamma = 1/8
    tab = default_constants()
    led = new_ledger(tab)
    b1 = led.blocks[0]
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, primes=(3, 5), d=2, gamma=F(1, 8))
    toy = Ledger(constants=tab, blocks=(b1, b2))
    r = rec(check_constraints(toy, 2), "5aa")
    assert r.lhs == F(1, 8)
    assert r.rhs == F(2 * 2 * 3, 3)          # = 4
    assert not r.satisfied


def test_beta_not_multiple_rejected():
    led = extend_ledger(new_ledger(demo_constants()))
    blocks = list(led.blocks)
    b2 = blocks[1]
    bad = BlockParams(m=2, beta_prev=b2.beta_prev + 1, primes=b2.primes,
                      d=b2.d, gamma=b2.gamma)
    b1 = blocks[0]
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1, gamma=b1.gamma,
                     beta=b2.beta_prev + 1, count=b2.beta_prev + 1)
    corrupt = Ledger(constants=led.constants, blocks=(b1, bad))
    r = rec(check_constraints(corrupt, 2), "pmbbb")
    assert not r.satisfied


# ---------------------------------------------------------------------------
# demo extension against an independent exhaustive oracle


def oracle_demo_block2():
    """Exhaustive search over K <= 8 and first primes below 1000.

    Reproduces the extension rule from scratch: K minimal admissible (at
    least 2 so deletion can bite), the smallest first prime whose window of
    K consecutive primes clears the margin and monotonicity rules, then the
    smallest admissible multiple of the period for the first endpoint.
    """
    tab = demo_constants()
    gamma, d = tab.gamma(2, 0), 2
    for K in range(2, 9):
        # the K rule at m=2 has zero left side, so K=2 is admissible
        if tab.k_growth.value(2) * 0 / K < tab.k_threshold.value(2):
            break
    q1 = 2
    while q1 < 1000:
        if is_prime(q1):
            ps = [q1]
            while len(ps) < K:
                ps.append(next_prime(ps[-1]))
            Q = sum(F(1, q) for q in ps)
            p = 1
            for q in ps:
                p *= q
            if (ps[-1] < 2 * ps[0] and q1 > d
                    and gamma > F(2 * K * (d + 1), ps[0])
                    and p > 1 and Q < 1):
                beta1 = p
                while not (beta1 > 10 and 2 < tab.f3c.value(1) * beta1
                           and p < tab.f4c_div * beta1
                           and p < tab.f19_p * beta1):
                    beta1 += p
                return K, tuple(ps), p, beta1
        q1 += 1
    raise AssertionError("oracle found no window")


def test_demo_block2_matches_oracle():
    K, primes, p, beta1 = oracle_demo_block2()
    led = extend_ledger(new_ledger(demo_constants()))
    b2 = led.blocks[1]
    assert (b2.K, b2.primes, b2.p) == (K, primes, p)
    assert led.blocks[0].beta == beta1
    # frozen oracle values, for the record
    assert (K, primes, p, beta1) == (2, (61, 67), 4087, 8174)


def test_demo_ledger_all_records_pass(demo_ledger):
    for report in full_report(demo_ledger):
        assert report.overall, [r.name for r in report.failing()]
    assert demo_ledger.complete_horizon == 5
    assert structural_report(demo_ledger).overall


def test_demo_monotonicity(demo_ledger):
    blocks = demo_ledger.blocks
    for a, b in zip(blocks, blocks[1:]):
        assert a.p < b.p
        assert b.Q < a.Q
        assert b.d == a.d + 1
    assert demo_ledger.nbar == tuple(sorted(demo_ledger.nbar))


# ---------------------------------------------------------------------------
# endpoint scan


@pytest.fixture
def counted_blocks(monkeypatch):
    """Block counts the endpoint scan asks for, one per candidate."""
    calls = []
    inner = ledger_mod.block_count

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(ledger_mod, "block_count", counted)
    return calls


@pytest.fixture(scope="module")
def f19_third_ledger():
    return extend_to(new_ledger(replace(demo_constants(), f19_p=F(1, 3))), 6)


def test_f19_p_one_third_scans_past_first_candidates(counted_blocks):
    # with a larger f19_p the solved lower bound on beta_{m-1} is below the
    # smallest endpoint whose count satisfies f19_p_count, so the scan steps
    led = extend_to(new_ledger(replace(demo_constants(), f19_p=F(1, 3))), 6)
    assert tuple(b.beta for b in led.blocks[:5]) == (
        16348, 221610, 717807, 2229358, 6794698)
    assert len(counted_blocks) == 25          # 5 with the demo f19_p
    for report in full_report(led):
        assert report.overall, [r.name for r in report.failing()]


@pytest.mark.parametrize("which", ["demo", "f19_third"])
def test_endpoints_are_minimal(request, which):
    # one multiple of p_m earlier, with its own count, some record of block
    # m-1 or block m fails
    led = request.getfixturevalue(f"{which}_ledger")
    for m in range(2, len(led.blocks) + 1):
        prev, blk = led.block(m - 1), led.block(m)
        beta = blk.beta_prev - blk.p
        count = block_count(prev.primes, prev.d, prev.beta_prev, beta)
        earlier = Ledger(
            constants=led.constants,
            blocks=led.blocks[:m - 2] + (
                replace(prev, beta=beta, count=count),
                replace(blk, beta_prev=beta, beta=None, count=None)))
        assert not (check_constraints(earlier, m - 1).overall
                    and check_constraints(earlier, m).overall), m


def test_unmendable_record_fails_at_first_candidate(counted_blocks):
    tab = replace(demo_constants(), f4c_floor=F(9, 10))   # 1 - 1/8 < 9/10
    with pytest.raises(LedgerError, match="block 2 .*f4c_gamma"):
        extend_ledger(new_ledger(tab))
    assert len(counted_blocks) == 1


# ---------------------------------------------------------------------------
# each record evaluated once


def _record_rows(ledger):
    return [(rep.m, [(r.name, r.lhs, r.rhs, r.op, r.satisfied)
                     for r in rep.records]) for rep in full_report(ledger)]


@pytest.mark.parametrize("table, horizon", [
    ("demo", 6), ("demo", 10), ("faithful", 2), ("f19_third", 6),
])
def test_cached_records_equal_fresh_ones(tmp_path, table, horizon):
    # the records an extension hands on to the ledger it returns are the
    # records a fresh ledger of the same blocks evaluates, in order
    tab = (replace(demo_constants(), f19_p=F(1, 3)) if table == "f19_third"
           else constants_for(table))
    built = extend_to(new_ledger(tab), horizon)
    assert sorted(built._open) == list(range(1, horizon + 1))
    save_ledger(built, tmp_path / "ledger.json")
    rows = _record_rows(built)
    assert rows == _record_rows(Ledger(built.constants, built.blocks))
    assert rows == _record_rows(load_ledger(tmp_path / "ledger.json"))
    for rep in full_report(built):
        assert rep.overall, [r.name for r in rep.failing()]


@pytest.fixture
def made_records(monkeypatch):
    """Names of the ConstraintRecords the ledger module makes."""
    made = []
    inner = ledger_mod.ConstraintRecord

    def counted(*args):
        made.append(args[0])
        return inner(*args)

    monkeypatch.setattr(ledger_mod, "ConstraintRecord", counted)
    return made


@pytest.mark.parametrize("horizon, n_records", [(6, 121), (10, 213)])
def test_build_evaluates_each_record_once(made_records, horizon, n_records):
    # one candidate endpoint per block with the demo table: every record of
    # the ledger is made once, none twice (209 and 389 when each candidate
    # evaluated block m-1 afresh)
    led = build_ledger("demo", horizon)
    assert len(made_records) == n_records
    assert sum(len(rep.records) for rep in full_report(led)[1:]) == n_records
    # its report evaluates only the structural and the closing records
    made_records.clear()
    full_report(led)
    closing = ["beta1_floor"] + ["f3c"] * led.complete_horizon
    assert sorted(made_records) == sorted(
        [r.name for r in structural_report(led).records] + closing)


def test_extension_rejects_failing_open_block_built_by_hand():
    # the toy 5aa block of test_toy_5aa_record_fails, open, under a table
    # that chooses a block 3 for it: its records are evaluated afresh and
    # every failing one is named
    tab = replace(demo_constants(), gamma_small=F(1, 8))
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=1,
                     gamma=tab.gamma_small, beta=15, count=15)
    b2 = BlockParams(m=2, beta_prev=15, primes=(3, 5), d=2, gamma=F(1, 8))
    toy = Ledger(constants=tab, blocks=(b1, b2))
    failing = [r.name for r in check_constraints(toy, 2).failing()]
    assert "5aa" in failing
    with pytest.raises(LedgerError, match="block 2 .*5aa") as exc:
        extend_ledger(toy)
    assert str(exc.value).endswith(", ".join(failing))


def test_extension_rejects_failing_closing_record(counted_blocks):
    # a negative f3c family: beta_{m-1} + 2 p_m < f3c(m) beta_m cannot hold
    tab = replace(demo_constants(), f3c=Family(F(-1, 3)))
    with pytest.raises(LedgerError,
                       match="block 1 with failing records: f3c$"):
        extend_ledger(new_ledger(tab))
    assert len(counted_blocks) == 1


# ---------------------------------------------------------------------------
# faithful infeasibility horizon


def test_faithful_blocks_1_2_build(faithful_ledger):
    b1, b2 = faithful_ledger.blocks
    assert b1.beta == 97_979_797          # forced by the p < beta/10^4 rule
    assert b2.primes == (97, 101)
    for m in (1, 2):
        assert check_constraints(faithful_ledger, m).overall


def test_faithful_block3_infeasible(faithful_ledger):
    with pytest.raises(InfeasibleAtScale) as exc:
        extend_ledger(faithful_ledger)
    err = exc.value
    assert err.m == 3 and err.what == "K"
    # the exact bound: 32*10^4*4^4 * 2^4 * count_1, strictly exceeded by 1
    expected = 32 * 10**4 * 4**4 * 2**4 * 97_979_797 + 1
    assert err.required == expected
    assert err.required > 10**12


def test_prime_window_beyond_max_beta_fails_fast():
    # with k_growth's geometric factor 1, K grows with the count of block 1,
    # so that K primes of any size multiply past MAX_BETA = 2^62: the
    # window search stops before listing a prime
    table = replace(demo_constants(), k_growth=Family(F(32), F(1)))
    t0 = time.perf_counter()
    with pytest.raises(InfeasibleAtScale) as exc:
        extend_to(new_ledger(table), 4)
    assert time.perf_counter() - t0 < 1.0
    err = exc.value
    assert (err.m, err.what, err.cap) == (3, "log2(p_m)", 62)
    assert err.required > 62


def test_missing_block_raises(demo_ledger):
    with pytest.raises(MissingBlock):
        check_constraints(demo_ledger, 42)


def test_missing_count_raises(demo_ledger):
    from primegrid.ledger import MissingCount

    # block 6 is open: the count through it is not yet determined
    with pytest.raises(MissingCount):
        demo_ledger.nb(6)
    # nor is any count past a block without one
    blocks = list(demo_ledger.blocks)
    blocks[2] = replace(blocks[2], count=None)
    uncounted = Ledger(constants=demo_ledger.constants, blocks=tuple(blocks))
    assert uncounted.nbar == demo_ledger.nbar[:3]
    with pytest.raises(MissingCount):
        check_constraints(uncounted, 6)


# ---------------------------------------------------------------------------
# serialization


def test_ledger_json_roundtrip(demo_ledger):
    data = ledger_to_json(demo_ledger)
    back = ledger_from_json(data)
    assert back == demo_ledger
    # rationals serialized as num/den decimal strings
    assert data["blocks"][1]["Q"] == {"num": "128", "den": "4087"}


def test_faithful_json_roundtrip(faithful_ledger):
    assert ledger_from_json(ledger_to_json(faithful_ledger)) == faithful_ledger
