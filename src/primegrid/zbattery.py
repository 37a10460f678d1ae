"""Seeded randomized batteries for the maximal-inequality constants.

Four inequalities are hammered with random signals; none may ever fail:

* window weak (1,1), constant 2;
* one-sided strong window bound in l2, constant 2;
* progression-mean weak (1,1), constant 4;
* deviation-supremum summed-square bound, constant 32/K (times the signal
  bound M and its l1 mass).

Each trial is reproducible from (base seed, battery name, context, trial
index) through the fixed splitmix64 derivation.  A battery first draws every
trial's seed, signal and level in one pass of uint64 arrays per grid context
(`_draw`): splitmix64 gives word k of a stream directly, so the words of all
trials are mixed at once.  A trial holding a word that `randint` would
reject (under 2^-56 per word at the batteries' span scales) is drawn again
through `random_signal`, the definition of a trial's draw.  The battery then
checks all trials in one call of the batched kernel (`zops.*_batch`), once
per grid context where it has them.  A signal's result does not depend on
the batch it is checked in, so every record is the one its trial gives
alone.  A violation is shrunk greedily through the per-signal kernel
(zeroing and trimming samples while it persists) and dumped as a replayable
JSON record; the run then reports failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .rng import _MASK, SplitMix64, derive_seed, index_u64_array, mix64_array
from .zops import (
    FiniteSignal,
    GridContext,
    deviation_sup_l2_bound,
    deviation_sup_l2_bound_batch,
    level_count_progression_sup,
    level_count_progression_sup_batch,
    level_count_window_sup,
    level_count_window_sup_batch,
    strong_l2_window_sup,
    strong_l2_window_sup_batch,
)

F = Fraction

WEAK_CONTEXTS = ((2, 3), (3, 5), (5, 7))
L2_CONTEXTS = ((2, 3), (3, 5), (5, 7), (5, 7, 11))

# randint(-8, 8) and randint(0, 2) reject only this word: 17 and 3 both
# divide 2^64 - 1
_REJECTED = (1 << 64) - 1


def random_signal(rng: SplitMix64, span_scale: int) -> FiniteSignal:
    """Random signal; span and offset scale with the context.

    The values are the floats num / den with |num| <= 8 and den in {1, 2, 4},
    so each equals the rational num/den exactly; at least one is nonzero.
    The (num, den) words are taken as one array; values and generator state
    are those of drawing each by `rng.randint` in turn.  `_draw_seeded`
    draws the same signals for many seeds at once.
    """
    length = rng.randint(1, 4 * span_scale)
    lo = rng.randint(-2 * span_scale, span_scale)
    words = rng.next_u64_array(2 * length)
    if (words == np.uint64(_REJECTED)).any():
        # randint draws one more word in place of each rejected one
        kept = [w for w in words.tolist() if w != _REJECTED]
        while len(kept) < 2 * length:
            w = rng.next_u64()
            if w != _REJECTED:
                kept.append(w)
        words = np.array(kept, dtype=np.uint64)
    nums = (words[0::2] % np.uint64(17)).astype(np.int64) - 8
    dens = np.array([1, 2, 4])[(words[1::2] % np.uint64(3)).astype(np.intp)]
    vals = (nums / dens).tolist()
    if all(v == 0 for v in vals):
        vals[rng.randint(0, length - 1)] = 1.0
    return FiniteSignal(lo, vals)


def signal_json(sig: FiniteSignal) -> dict:
    vals = []
    for v in sig.values:
        f = F(v).limit_denominator(10**9) if isinstance(v, float) else F(v)
        vals.append({"num": str(f.numerator), "den": str(f.denominator)})
    return {"lo": sig.lo, "values": vals}


def shrink_signal(sig: FiniteSignal, still_fails) -> FiniteSignal:
    """Greedy minimization: drop ends, then zero single samples."""
    cur = sig
    changed = True
    while changed:
        changed = False
        while len(cur.values) > 1:
            cand = FiniteSignal(cur.lo + 1, cur.values[1:])
            if still_fails(cand):
                cur, changed = cand, True
            else:
                break
        while len(cur.values) > 1:
            cand = FiniteSignal(cur.lo, cur.values[:-1])
            if still_fails(cand):
                cur, changed = cand, True
            else:
                break
        for i, v in enumerate(cur.values):
            if v == 0:
                continue
            vals = list(cur.values)
            vals[i] = type(v)(0)
            cand = FiniteSignal(cur.lo, vals)
            if still_fails(cand):
                cur, changed = cand, True
    return cur


def _record(test, ctx_primes, seed, trial, lhs, rhs, ok, extra=None) -> dict:
    rec = {
        "test": test,
        "ctx": list(ctx_primes) if ctx_primes else None,
        "seed": seed,
        "trial": trial,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "ratio": float(lhs) / float(rhs) if rhs else None,
        "pass": bool(ok),
    }
    if extra:
        rec.update(extra)
    return rec


class Draws(NamedTuple):
    """One battery context's trials: seeds, signals and levels, in trial
    order (levels are None in a battery without them)."""

    seeds: list
    sigs: list
    lams: list


def _draw(base_seed: int, parts: tuple, trials: int, span_scale: int,
          levels: bool) -> Draws:
    # derive_seed folds its parts in turn, so the shared prefix folds once;
    # derive_seed(prefix, trial) is mix64(prefix ^ trial)
    prefix = derive_seed(base_seed, *parts)
    seeds = mix64_array(np.uint64(prefix) ^ np.arange(trials, dtype=np.uint64))
    return _draw_seeded(seeds, span_scale, levels)


def _kept_max(span):
    """The largest word `randint` keeps over `span` values (per element of
    an array of spans): rejection drops the 2^64 mod span words above it."""
    top = np.uint64(_MASK)
    span = np.asarray(span, dtype=np.uint64)
    return top - (top % span + np.uint64(1)) % span


def _level(u, l1):
    """A trial's level from its uniform draw u and its signal's l1 norm."""
    return (0.02 + 1.4 * u) * l1


def _draw_seeded(seeds: np.ndarray, span_scale: int, levels: bool) -> Draws:
    """Each seed's `random_signal(SplitMix64(seed), span_scale)`, then its
    level from the generator's next `uniform()`, for all seeds at once.

    Word k of a seed's stream is `index_u64(seed, k)`: words 0 and 1 give
    length L and offset, words 2..2L+1 the (num, den) pairs, word 2L+2 the
    sample an all-zero draw sets to 1, and the word after those the level.
    The value words of all trials are drawn as one flat array.  Every
    |value| is a multiple of 1/4 up to 8 and a signal has at most
    4 * span_scale of them, so every partial sum of its l1 norm is exact,
    and the per-trial sum is `FiniteSignal.l1` in any order.  A trial with
    a word that `randint` rejects is drawn again through `random_signal`.
    """
    n = seeds.size
    head = index_u64_array(seeds[:, None], np.arange(2))
    span, lo_span = 4 * span_scale, 3 * span_scale + 1
    lengths = (head[:, 0] % np.uint64(span)).astype(np.int64) + 1
    los = (head[:, 1] % np.uint64(lo_span)).astype(np.int64) - 2 * span_scale
    redo = (head[:, 0] > _kept_max(span)) | (head[:, 1] > _kept_max(lo_span))

    # trial t's values sit at flat places start[t] .. start[t] + L - 1, and
    # its value words at twice those places and the next ones
    start = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(n), 2 * lengths)
    words = index_u64_array(seeds[owner],
                            np.arange(owner.size) - 2 * start[owner] + 2)
    redo |= np.bincount(owner[words == np.uint64(_REJECTED)], minlength=n) > 0
    nums = (words[0::2] % np.uint64(17)).astype(np.int64) - 8
    dens = np.array([1, 2, 4])[(words[1::2] % np.uint64(3)).astype(np.intp)]
    vals = nums / dens
    l1 = np.bincount(owner[0::2], weights=np.abs(vals), minlength=n)

    next_word = 2 * lengths + 2
    zero = np.flatnonzero(l1 == 0)
    if zero.size:
        fix = index_u64_array(seeds[zero], next_word[zero])
        redo[zero] |= fix > _kept_max(lengths[zero])
        at = fix % lengths[zero].astype(np.uint64)
        vals[start[zero] + at.astype(np.int64)] = 1.0
        l1[zero] = 1.0
        next_word[zero] += 1

    if levels:
        u = (index_u64_array(seeds, next_word) >> np.uint64(11)) * 2.0**-53
        lams = _level(u, l1).tolist()
    else:
        lams = [None] * n
    flat = vals.tolist()
    sigs = [FiniteSignal(lo, flat[a:a + m]) for lo, a, m
            in zip(los.tolist(), start.tolist(), lengths.tolist())]
    seed_list = seeds.tolist()
    for t in np.flatnonzero(redo).tolist():
        rng = SplitMix64(seed_list[t])
        sigs[t] = random_signal(rng, span_scale)
        lams[t] = _level(rng.uniform(), sigs[t].l1) if levels else None
    return Draws(seed_list, sigs, lams)


def _records(test, primes, draws, results, keys, fails, extra) -> list[dict]:
    """One record per trial of a checked batch.

    `keys` names the result's lhs and rhs, `fails(sig, lam)` replays one
    signal through the per-signal kernel for shrinking, and `extra(lam)`
    gives the record's extra fields.
    """
    out = []
    for trial, (seed, sig, lam, res) in enumerate(zip(*draws, results)):
        rec = _record(test, primes, seed, trial, res[keys[0]], res[keys[1]],
                      res["ok"], extra(lam))
        if not res["ok"]:
            bad = shrink_signal(sig, lambda s: fails(s, lam))
            rec["counterexample"] = signal_json(bad)
        out.append(rec)
    return out


def battery_window_weak(base_seed: int, trials: int) -> list[dict]:
    draws = _draw(base_seed, ("window_weak",), trials, 12, levels=True)
    results = level_count_window_sup_batch(draws.sigs, draws.lams)
    return _records("window_weak", None, draws, results, ("count", "bound"),
                    lambda s, lam: not level_count_window_sup(s, lam)["ok"],
                    lambda lam: {"lambda": float(lam)})


def battery_window_strong(base_seed: int, trials: int) -> list[dict]:
    draws = _draw(base_seed, ("window_strong",), trials, 12, levels=False)
    results = strong_l2_window_sup_batch(draws.sigs)
    return _records("window_strong", None, draws, results, ("lhs", "rhs"),
                    lambda s, lam: not strong_l2_window_sup(s)["ok"],
                    lambda lam: None)


def battery_progression_weak(base_seed: int, trials: int) -> list[dict]:
    out = []
    per_ctx = -(-trials // len(WEAK_CONTEXTS))
    for primes in WEAK_CONTEXTS:
        ctx = GridContext(primes)
        draws = _draw(base_seed, ("progression_weak", primes), per_ctx, ctx.p,
                      levels=True)
        results = level_count_progression_sup_batch(draws.sigs, ctx, draws.lams)
        out += _records(
            "progression_weak", primes, draws, results, ("count", "bound"),
            lambda s, lam: not level_count_progression_sup(s, ctx, lam)["ok"],
            lambda lam: {"lambda": float(lam)})
    return out


def battery_deviation_l2(base_seed: int, trials: int) -> list[dict]:
    out = []
    per_ctx = -(-trials // len(L2_CONTEXTS))
    for primes in L2_CONTEXTS:
        ctx = GridContext(primes)
        draws = _draw(base_seed, ("deviation_l2", primes), per_ctx,
                      min(ctx.p, 64), levels=False)
        results = deviation_sup_l2_bound_batch(draws.sigs, ctx)
        out += _records(
            "deviation_l2", primes, draws, results, ("lhs", "rhs"),
            lambda s, lam: not deviation_sup_l2_bound(s, ctx)["ok"],
            lambda lam: {"ratio_ok_ctx": ctx.ratio_ok})
    return out


def run_all(base_seed: int, trials: int = 1000) -> dict:
    """All four batteries; returns records plus a summary."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    batteries = {
        "window_weak": battery_window_weak(base_seed, trials),
        "window_strong": battery_window_strong(base_seed, trials),
        "progression_weak": battery_progression_weak(base_seed, trials),
        "deviation_l2": battery_deviation_l2(base_seed, trials),
    }
    summary = {}
    for name, recs in batteries.items():
        fails = [r for r in recs if not r["pass"]]
        ratios = [r["ratio"] for r in recs if r["ratio"] is not None]
        summary[name] = {
            "trials": len(recs),
            "failures": len(fails),
            "max_ratio": max(ratios) if ratios else None,
        }
    return {"records": batteries, "summary": summary}
