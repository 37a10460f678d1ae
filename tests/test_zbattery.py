import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    battery_deviation_l2_by_trial,
    battery_progression_weak_by_trial,
    battery_window_strong_by_trial,
    battery_window_weak_by_trial,
)
from primegrid import cli, rng, zbattery
from primegrid.rng import _GAMMA, _MASK, index_u64, mix64
from primegrid.zbattery import (
    battery_deviation_l2,
    battery_progression_weak,
    battery_window_strong,
    battery_window_weak,
    random_signal,
    run_all,
    shrink_signal,
    signal_json,
)
from primegrid.rng import SplitMix64
from primegrid.zops import FiniteSignal


def _dumps(res):
    """A run's records, as dicts, and its summary in one JSON text."""
    return json.dumps({"records": {k: list(v) for k, v in res["records"].items()},
                       "summary": res["summary"]}, sort_keys=True)


def test_batteries_deterministic():
    a = run_all(123, trials=12)
    b = run_all(123, trials=12)
    assert _dumps(a) == _dumps(b)
    c = run_all(124, trials=12)
    assert _dumps(a) != _dumps(c)


def test_batteries_clean_at_modest_trials():
    res = run_all(777, trials=60)
    for name, s in res["summary"].items():
        assert s["failures"] == 0, name
        assert s["trials"] >= 60


# tracemalloc peak of run_all(20250809, 250) on NumPy 2.4.6: 0.98 MB with
# 2^15-entry groups, 1.30 MB with the 2^16 the batteries use, 2.32 MB with
# 2^17, so the bound sits between the last two and a doubled group in
# _grouped, _padded or _lattice_tables crosses it (the NumPy 1 peaks were
# not re-measured); test_zops_kernels bounds the tail's runs per term
BATTERY_PEAK_MB = 2.0


def test_battery_run_stays_within_its_memory_bound():
    run_all(20250809, 1)              # imports and caches outside the count
    tracemalloc.start()
    try:
        run_all(20250809, 250)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BATTERY_PEAK_MB * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_record_schema():
    recs = battery_progression_weak(5, 6)
    for rec in recs:
        assert set(rec) >= {"test", "ctx", "seed", "trial", "lhs", "rhs",
                            "ratio", "pass"}
        assert rec["pass"] is True


def test_deviation_battery_includes_wide_context():
    recs = battery_deviation_l2(5, 8)
    ctxs = {tuple(r["ctx"]) for r in recs}
    assert (5, 7, 11) in ctxs
    flagged = [r for r in recs if tuple(r["ctx"]) == (5, 7, 11)]
    assert all(r["ratio_ok_ctx"] is False for r in flagged)


def test_random_signal_reproducible():
    a = random_signal(SplitMix64(9), 10)
    b = random_signal(SplitMix64(9), 10)
    assert a.lo == b.lo and a.values == b.values
    assert any(v != 0 for v in a.values)


def test_shrink_minimizes_under_predicate():
    sig = FiniteSignal(-3, [0.0, 2.0, 0.0, -1.0, 5.0, 0.0])
    # predicate: keeps failing while total mass at least 5
    small = shrink_signal(sig, lambda s: s.l1 >= 5.0)
    assert small.l1 >= 5.0
    assert len(small.values) <= 2
    assert small.l1 <= sig.l1


def test_signal_json_rational_fields():
    sig = FiniteSignal(2, [0.5, -1.0])
    blob = signal_json(sig)
    assert blob["lo"] == 2
    assert blob["values"][0] == {"num": "1", "den": "2"}
    assert blob["values"][1] == {"num": "-1", "den": "1"}


def test_window_batteries_have_margin():
    for recs in (battery_window_weak(31, 40), battery_window_strong(31, 40)):
        worst = max(r["ratio"] for r in recs)
        assert worst <= 1.0


# ---------------------------------------------------------------------------
# the line writer against json

_ANY_FLOAT = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, -3.5, 5e-324, -2.5e-310, 1e300, -1e300]))


def _column(data, n, elements):
    return data.draw(st.lists(elements, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6),
       test=st.sampled_from(["window_weak", "window_strong",
                             "progression_weak", "deviation_l2"]),
       ctx=st.sampled_from([None, (2, 3), (5, 7, 11)]),
       extra=st.sampled_from(["lambda", "ratio_ok_ctx", None]))
def test_lines_equal_json_dumps(data, n, test, ctx, extra):
    # every key set the batteries emit: lambda or ratio_ok_ctx or neither,
    # ctx null or a list, ratio null (rhs 0), seeds at both ends of the
    # range, and a counterexample, whose key sorts first
    seeds = _column(data, n, st.sampled_from([0, _MASK]) | st.integers(0, _MASK))
    lhs = _column(data, n, _ANY_FLOAT)
    rhs = _column(data, n, st.just(0.0) | _ANY_FLOAT)
    ok = _column(data, n, st.booleans())
    fields = {"lambda": {"lambda": np.array(_column(data, n, _ANY_FLOAT))},
              "ratio_ok_ctx": {"ratio_ok_ctx": data.draw(st.booleans())},
              None: {}}[extra]
    bad = {t: signal_json(FiniteSignal(-t, [0.5, -8.0][:t + 1]))
           for t in data.draw(st.sets(st.integers(0, n - 1)))}
    cols = {"ctx": list(ctx) if ctx else None,
            "seed": np.array(seeds, dtype=np.uint64), "lhs": np.array(lhs),
            "rhs": np.array(rhs), "pass": np.array(ok), **fields}
    recs = zbattery.Records(test, [(cols, bad)])
    want = [json.dumps(rec, sort_keys=True) for rec in recs]
    assert list(recs.lines()) == want
    assert [line.startswith('{"counterexample": ') for line in want] == \
        [t in bad for t in range(n)]


# ---------------------------------------------------------------------------
# words that randint rejects

def _unshift(y, s):
    """Inverse of z -> z ^ (z >> s) on 64-bit words."""
    z = y
    for _ in range(64 // s + 1):
        z = y ^ (z >> s)
    return z


def _unmix64(z):
    """Inverse of rng.mix64."""
    z = _unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK
    return _unshift(z, 30)


def _seed_with_word(k, w=_MASK):
    """A seed whose output k is w (by default 2^64 - 1, the word every
    randint over a span that does not divide 2^64 rejects)."""
    return (_unmix64(w) - (k + 1) * _GAMMA) & _MASK


def _seed_rejecting(k):
    """A seed whose output 2 + k is 2^64 - 1: value word k of its signal,
    the one word randint(-8, 8) and randint(0, 2) reject."""
    return _seed_with_word(k + 2)


def test_drawn_norms_never_go_stale():
    # the norm columns of a draw are the norms of its values, and a trial
    # taken out as a signal (as a failing one is, to be shrunk) is an
    # immutable value that computes the same norms afresh
    seeds, sigs, lams = zbattery._draw(7, ("window_weak",), 20, 12,
                                       levels=False)
    assert lams is None and len(sigs) == seeds.size == 20
    for t in range(20):
        sig = sigs.signal(t)
        with pytest.raises(AttributeError):
            sig.values = (100.0,) + sig.values[1:]
        with pytest.raises(TypeError):
            sig.values[0] = 100.0
        with pytest.raises(AttributeError):
            sig.lo = sig.lo + 1
        assert "l1" not in vars(sig)
        drawn = {k: getattr(sigs, k)[t] for k in ("l1", "bound_M", "l2sq")}
        assert drawn == {"l1": sum(abs(v) for v in sig.values),
                         "bound_M": max(abs(v) for v in sig.values),
                         "l2sq": sum(v * v for v in sig.values)}
        assert drawn == {"l1": sig.l1, "bound_M": sig.bound_M,
                         "l2sq": sig.l2sq}


# ---------------------------------------------------------------------------
# all trials of a context drawn at once against one generator per trial

def _assert_draws_one_by_one(seeds, span_scale, levels):
    sigs, lams = zbattery._draw_seeded(np.array(seeds, dtype=np.uint64),
                                       span_scale, levels)
    assert len(sigs) == len(seeds)
    assert sigs.values.size == sigs.lengths.sum()
    assert sigs.values.dtype == float
    for t, seed in enumerate(seeds):
        gen = SplitMix64(seed)
        want = random_signal(gen, span_scale)
        sig = sigs.signal(t)
        assert (sig.lo, sig.values) == (want.lo, want.values)
        assert all(type(v) is float for v in sig.values)
        # the norm columns hold the norms the values give
        for norm in ("l1", "bound_M", "l2sq"):
            assert getattr(sigs, norm)[t] == getattr(want, norm)
            assert getattr(sigs, norm).dtype == float
        if levels:
            # the level comes from the word right after the signal's
            assert lams[t] == (0.02 + 1.4 * gen.uniform()) * want.l1
            assert lams.dtype == float
        else:
            assert lams is None


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, _MASK), min_size=1, max_size=6),
       span_scale=st.sampled_from((12, 35, 64, 385)), levels=st.booleans())
def test_draw_seeded_equals_random_signal(seeds, span_scale, levels):
    _assert_draws_one_by_one(seeds, span_scale, levels)


def _all_zero_seeds(span_scale, count):
    """Seeds whose signal draws length 1 with value 0, found by scanning."""
    found = []
    seed = 0
    while len(found) < count:
        if (index_u64(seed, 0) % (4 * span_scale) == 0
                and index_u64(seed, 2) % 17 == 8):
            found.append(seed)
        seed += 1
    return found


@pytest.mark.parametrize("span_scale", [12, 64])
def test_draw_seeded_fixes_all_zero_draws(span_scale):
    zero = _all_zero_seeds(span_scale, 4)
    for seed in zero:
        assert random_signal(SplitMix64(seed), span_scale).values == (1.0,)
    for levels in (True, False):
        _assert_draws_one_by_one(zero + [5, 6] + zero, span_scale, levels)


@pytest.fixture
def replays(monkeypatch):
    """The seeds the array draw hands to random_signal, in order."""
    seen = []

    def counted(gen, span_scale):
        seen.append(gen._state)
        return random_signal(gen, span_scale)

    monkeypatch.setattr(zbattery, "random_signal", counted)
    return seen


@pytest.mark.parametrize("span_scale", [12, 35, 64, 385])
def test_draw_seeded_replays_rejected_words(replays, span_scale):
    assert mix64(_unmix64(_MASK)) == _MASK
    # randint passes over the rejected word to the next one
    seed = _seed_with_word(0)
    assert SplitMix64(seed).randint(-8, 8) == index_u64(seed, 1) % 17 - 8
    span = 4 * span_scale
    head = [_seed_with_word(0), _seed_with_word(1)]
    # value words: the first num and den, and the last den of a signal
    values = [_seed_with_word(2), _seed_with_word(3)]
    values += [next(_seed_rejecting(k) for k in range(1, 20_000)
                    if k == 2 * SplitMix64(_seed_rejecting(k)).randint(1, span) - 1)]
    plain = [1, 2]
    # 4 * 64 = 256 divides 2^64: randint(1, 256) keeps every word
    rejected = head[1:] + values if span_scale == 64 else head + values
    for levels in (True, False):
        replays.clear()
        seeds = plain + head + values + plain
        _assert_draws_one_by_one(seeds, span_scale, levels)
        assert replays == rejected


def _script_words(monkeypatch, seed, words):
    """Make output k of seed's stream words[k], in the scalar and the array
    mix alike."""
    by_state = {(seed + (k + 1) * _GAMMA) & _MASK: w for k, w in words.items()}
    mix, mix_array = rng.mix64, rng.mix64_array

    def scripted_array(z):
        out = mix_array(z)
        for state, w in by_state.items():
            out[z == np.uint64(state)] = w
        return out

    monkeypatch.setattr(rng, "mix64", lambda z: by_state.get(z & _MASK, mix(z)))
    monkeypatch.setattr(rng, "mix64_array", scripted_array)


@pytest.mark.parametrize("fix_word, replayed", [(5, False), (_MASK, True)])
def test_draw_seeded_replays_rejected_zero_fix(monkeypatch, replays, fix_word,
                                               replayed):
    # no single seed found by inverting the mix draws all zeros and then a
    # rejected index, so the words are scripted: length 3 (span 48), three
    # zero values, then the index of the sample set to 1; randint(0, 2)
    # rejects 2^64 - 1 and takes the next word instead
    seed = 77
    _script_words(monkeypatch, seed,
                  {0: 2, 1: 0, 2: 8, 3: 0, 4: 8, 5: 1, 6: 8, 7: 2, 8: fix_word})
    sig = random_signal(SplitMix64(seed), 12)
    assert sig.values.count(1.0) == 1 and sig.l1 == 1.0
    if not replayed:
        assert sig.values == (0.0, 0.0, 1.0)
    replays.clear()
    for levels in (True, False):
        _assert_draws_one_by_one([3, seed, 4], 12, levels)
    assert replays == ([seed, seed] if replayed else [])


# ---------------------------------------------------------------------------
# batched batteries against one trial at a time

BY_TRIAL = {
    "window_weak": battery_window_weak_by_trial,
    "window_strong": battery_window_strong_by_trial,
    "progression_weak": battery_progression_weak_by_trial,
    "deviation_l2": battery_deviation_l2_by_trial,
}


@pytest.mark.parametrize("trials", [1, 7, 250])
@pytest.mark.parametrize("seed", [20250809, 20250816, 123])
def test_batched_batteries_equal_trial_loops(seed, trials):
    for name, by_trial in BY_TRIAL.items():
        got = getattr(zbattery, f"battery_{name}")(seed, trials)
        assert json.dumps(list(got), sort_keys=True) == \
            json.dumps(by_trial(seed, trials), sort_keys=True), name


def test_failed_trial_in_batch_is_shrunk_and_counted(monkeypatch, tmp_path):
    seed, trials = 20250809, 12
    # a trial whose level count is positive fails once the bound is 0
    target = next(r["trial"] for r in battery_window_weak(seed, trials)
                  if r["lhs"] >= 1)
    batch = zbattery.level_count_window_sup_batch
    one = zbattery.level_count_window_sup

    def zero_bound(res):
        return dict(res, bound=0.0, ok=res["count"] <= 0)

    def failing_batch(sigs, lams):
        out = batch(sigs, lams)
        out["bound"][target] = 0.0
        out["ok"][target] = out["count"][target] <= 0
        return out

    # shrinking replays through the per-signal kernel, under the same bound
    monkeypatch.setattr(zbattery, "level_count_window_sup_batch", failing_batch)
    monkeypatch.setattr(zbattery, "level_count_window_sup",
                        lambda sig, lam: zero_bound(one(sig, lam)))
    res = run_all(seed, trials)
    recs = res["records"]["window_weak"]
    assert [r["pass"] for r in recs] == [r["trial"] != target for r in recs]
    bad = recs[target]
    assert bad["rhs"] == 0.0 and bad["ratio"] is None
    blob = bad["counterexample"]
    sig = FiniteSignal(blob["lo"], [int(v["num"]) / int(v["den"])
                                    for v in blob["values"]])
    assert not zbattery.level_count_window_sup(sig, bad["lambda"])["ok"]
    assert one(sig, bad["lambda"])["count"] >= 1
    assert res["summary"]["window_weak"]["failures"] == 1
    assert sum(v["failures"] for v in res["summary"].values()) == 1
    # the written file: each line is the one json.dumps gives the record
    # dict, the counterexample record included
    out = tmp_path / "battery.jsonl"
    assert cli.main(["ops-test", "--seed", str(seed), "--trials", str(trials),
                     "--out", str(out)]) == 1
    dicts = [json.dumps(rec, sort_keys=True)
             for name, recs in sorted(res["records"].items()) for rec in recs]
    assert out.read_bytes() == ("\n".join(dicts) + "\n").encode()
    assert sum(b'"counterexample"' in line
               for line in out.read_bytes().splitlines()) == 1
