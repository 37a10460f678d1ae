"""Seeded randomized batteries for the maximal-inequality constants.

Four inequalities are hammered with random signals; none may ever fail:
window weak (1,1), constant 2; one-sided strong window bound in l2,
constant 2; progression-mean weak (1,1), constant 4; deviation-supremum
summed-square bound, constant 32/K (times the signal bound M and its l1).

Each trial is reproducible from (base seed, battery name, context, trial
index) through the fixed splitmix64 derivation.  `random_signal` defines a
trial's draw, one `randint` at a time; `_draw` draws all trials of a grid
context as columns (a `zops.Signals` batch and a level array) in one pass
of uint64 arrays, and hands a trial holding a word that `randint` would
reject (under 2^-56 per word at the batteries' span scales) to
`random_signal`.  The batched kernel (`zops.*_batch`) checks the batch in
one call and returns result arrays; a signal's result does not depend on
the batch it is checked in.  The records stay columns (`Records`) up to
the written line.  Only a violation becomes a `FiniteSignal`: it is shrunk
greedily through the per-signal kernel and dumped as a replayable JSON
record, and the run then reports failure.
"""

from __future__ import annotations

import json

import numpy as np

from .constants import frac_json
from .rng import _MASK, SplitMix64, derive_seed, index_u64_array, mix64_array
from .zops import (
    FiniteSignal,
    GridContext,
    Signals,
    deviation_sup_l2_bound,
    deviation_sup_l2_bound_batch,
    level_count_progression_sup,
    level_count_progression_sup_batch,
    level_count_window_sup,
    level_count_window_sup_batch,
    strong_l2_window_sup,
    strong_l2_window_sup_batch,
)

WEAK_CONTEXTS = ((2, 3), (3, 5), (5, 7))
L2_CONTEXTS = ((2, 3), (3, 5), (5, 7), (5, 7, 11))

# the largest trial count: ops-test's peak RSS grows by 3.5-4.4 KB per
# trial (101 MB at 16,000 trials, 221 MB at 50,000), so it stays under 1 GB
MAX_TRIALS = 200_000


class TrialsOutOfRange(ValueError):
    pass


# randint(-8, 8) and randint(0, 2) reject only this word: 17 and 3 both
# divide 2^64 - 1
_REJECTED = (1 << 64) - 1


def random_signal(rng: SplitMix64, span_scale: int) -> FiniteSignal:
    """A trial's random signal: the definition of the battery draw.

    One `rng.randint` each for the length and the offset (both scale with
    the context), then for each value its num in [-8, 8] and its den in
    {1, 2, 4}; the floats num / den equal the rationals exactly.  An
    all-zero draw sets one sample, drawn last, to 1.
    """
    length = rng.randint(1, 4 * span_scale)
    lo = rng.randint(-2 * span_scale, span_scale)
    vals = [rng.randint(-8, 8) / (1, 2, 4)[rng.randint(0, 2)]
            for _ in range(length)]
    if all(v == 0 for v in vals):
        vals[rng.randint(0, length - 1)] = 1.0
    return FiniteSignal(lo, vals)


def signal_json(sig: FiniteSignal) -> dict:
    """The signal with each value as its exact fraction (a float's too)."""
    return {"lo": sig.lo, "values": [frac_json(v) for v in sig.values]}


def shrink_signal(sig: FiniteSignal, still_fails) -> FiniteSignal:
    """Greedy minimization: drop ends, then zero single samples."""
    cur, changed = sig, True
    while changed:
        changed = False
        for shift, keep in ((1, slice(1, None)), (0, slice(None, -1))):
            while len(cur.values) > 1 and still_fails(
                    cand := FiniteSignal(cur.lo + shift, cur.values[keep])):
                cur, changed = cand, True
        for i, v in enumerate(cur.values):
            if v != 0 and still_fails(cand := FiniteSignal(
                    cur.lo, cur.values[:i] + (type(v)(0),) + cur.values[i + 1:])):
                cur, changed = cand, True
    return cur


def _draw(base_seed: int, parts: tuple, trials: int, span_scale: int,
          levels: bool) -> tuple:
    """One battery context's trials: their seeds, signals and levels.  The
    shared prefix of derive_seed's parts folds once, and derive_seed(prefix,
    trial) is mix64(prefix ^ trial)."""
    prefix = np.uint64(derive_seed(base_seed, *parts))
    seeds = mix64_array(prefix ^ np.arange(trials, dtype=np.uint64))
    return (seeds, *_draw_seeded(seeds, span_scale, levels))


def _kept_max(span):
    """The largest word `randint` keeps over `span` values (per element of
    an array of spans): rejection drops the 2^64 mod span words above it."""
    top, span = np.uint64(_MASK), np.asarray(span, dtype=np.uint64)
    return top - (top % span + np.uint64(1)) % span


def _draw_seeded(seeds: np.ndarray, span_scale: int, levels: bool) -> tuple:
    """Each seed's `random_signal(SplitMix64(seed), span_scale)`, then its
    level from the generator's next `uniform()`, for all seeds at once: the
    signals as one `Signals` batch, and the levels as an array (None in a
    battery without them).

    Word k of a seed's stream is `index_u64(seed, k)`: words 0 and 1 give
    length L and offset, words 2..2L+1 the (num, den) pairs, word 2L+2 the
    sample an all-zero draw sets to 1, and the word after those the level.
    The value words of all trials are drawn as one flat array.  Every
    |value| is a multiple of 1/4 up to 8, at most 4 * span_scale of them,
    so the norm sums are exact in any order.  A trial with a word that
    `randint` rejects is drawn again through `random_signal`.
    """
    head = index_u64_array(seeds[:, None], np.arange(2))
    span, lo_span = 4 * span_scale, 3 * span_scale + 1
    lengths = (head[:, 0] % np.uint64(span)).astype(np.int64) + 1
    los = (head[:, 1] % np.uint64(lo_span)).astype(np.int64) - 2 * span_scale
    redo = (head[:, 0] > _kept_max(span)) | (head[:, 1] > _kept_max(lo_span))

    # trial t's values sit at flat places start[t] .. start[t] + L - 1, and
    # its value words at twice those places and the next ones
    start = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(seeds.size), 2 * lengths)
    words = index_u64_array(seeds[owner],
                            np.arange(owner.size) - 2 * start[owner] + 2)
    redo[owner[words == np.uint64(_REJECTED)]] = True
    nums = (words[0::2] % np.uint64(17)).astype(np.int64) - 8
    dens = np.array([1, 2, 4])[(words[1::2] % np.uint64(3)).astype(np.intp)]
    vals = nums / dens

    next_word = 2 * lengths + 2
    zero = np.flatnonzero(np.maximum.reduceat(np.abs(vals), start) == 0)
    if zero.size:
        fix = index_u64_array(seeds[zero], next_word[zero])
        redo[zero] |= fix > _kept_max(lengths[zero])
        at = fix % lengths[zero].astype(np.uint64)
        vals[start[zero] + at.astype(np.int64)] = 1.0
        next_word[zero] += 1
    u = (index_u64_array(seeds, next_word) >> np.uint64(11)) * 2.0**-53
    if redo.any():
        runs = np.split(vals, start[1:])
        for t in np.flatnonzero(redo).tolist():
            rng = SplitMix64(int(seeds[t]))
            sig = random_signal(rng, span_scale)
            los[t], lengths[t], runs[t] = sig.lo, len(sig.values), sig.values
            u[t] = rng.uniform()
        vals = np.concatenate(runs)
        start = np.cumsum(lengths) - lengths
    absv = np.abs(vals)
    l1 = np.add.reduceat(absv, start)
    sigs = Signals(los, lengths, vals, l1, np.maximum.reduceat(absv, start),
                   np.add.reduceat(vals * vals, start))
    return sigs, (0.02 + 1.4 * u) * l1 if levels else None


class Records:
    """One battery's records as columns: per grid context, its fields by
    record key (an array or a constant) and each failing trial's
    counterexample by index.  A record reads as its dict when indexed or
    iterated; `lines` gives each as `json.dumps(rec, sort_keys=True)`."""

    def __init__(self, test: str, parts: list):
        self.test, self.parts = test, parts

    def __len__(self) -> int:
        return sum(cols["seed"].size for cols, bad in self.parts)

    def __getitem__(self, i: int) -> dict:
        i = range(len(self))[i]
        for part in self.parts:
            if i < part[0]["seed"].size:
                return self._record(part, i)
            i -= part[0]["seed"].size

    def __iter__(self):
        return (self._record(part, t) for part in self.parts
                for t in range(part[0]["seed"].size))

    def _record(self, part: tuple, t: int) -> dict:
        cols, bad = part
        rec = {k: v[t].item() if isinstance(v, np.ndarray) else v
               for k, v in cols.items()}
        rec.update(test=self.test, trial=t, ratio=rec["lhs"] / rec["rhs"]
                   if rec["rhs"] else None)
        return rec | ({"counterexample": bad[t]} if t in bad else {})

    def lines(self):
        """One template per part, each float written by float.__repr__ as
        json does; only a record with a counterexample goes through json."""
        for cols, bad in self.parts:
            lhs, rhs = cols["lhs"], cols["rhs"]
            with np.errstate(over="ignore", invalid="ignore"):
                ratio = _texts(np.divide(lhs, rhs, out=np.zeros_like(lhs),
                                         where=rhs != 0))
            for t in np.flatnonzero(rhs == 0).tolist():
                ratio[t] = "null"
            texts = sorted({**{k: _texts(v) for k, v in cols.items()},
                            "ratio": ratio, "test": json.dumps(self.test),
                            "trial": range(lhs.size)}.items())
            tpl = "{%s}" % ", ".join(
                f'"{k}": ' + (c.replace("%", "%%") if isinstance(c, str) else "%s")
                for k, c in texts)
            rows = zip(*(c for k, c in texts if not isinstance(c, str)))
            for t, row in enumerate(rows):
                yield json.dumps(self._record((cols, bad), t), sort_keys=True) \
                    if t in bad else tpl % row


def _texts(v) -> list | str:
    """A constant, or each entry of a column, as json writes it: a finite
    float by float.__repr__, an int by int.__repr__."""
    if not isinstance(v, np.ndarray):
        return json.dumps(v)
    if v.dtype == bool:
        return ["true" if b else "false" for b in v.tolist()]
    if v.dtype.kind == "f" and not np.isfinite(v).all():
        return [json.dumps(x) for x in v.tolist()]
    return list(map(repr, v.tolist()))


def _part(primes, draw: tuple, res: dict, keys: tuple, extra, fails) -> tuple:
    """One context's part of a battery's `Records`; `keys` names the lhs and
    rhs results, and `fails(sig, lam)` replays a failing trial to shrink it."""
    seeds, sigs, lams = draw
    bad = {}
    for t in np.flatnonzero(~res["ok"]).tolist():
        lam = None if lams is None else float(lams[t])
        bad[t] = signal_json(shrink_signal(sigs.signal(t),
                                           lambda s: fails(s, lam)))
    return ({"ctx": list(primes) if primes else None, "seed": seeds,
             "lhs": res[keys[0]].astype(float), "rhs": res[keys[1]],
             "pass": res["ok"], **extra}, bad)


def battery_window_weak(base_seed: int, trials: int) -> Records:
    draw = _draw(base_seed, ("window_weak",), trials, 12, levels=True)
    res = level_count_window_sup_batch(*draw[1:])
    return Records("window_weak", [_part(
        None, draw, res, ("count", "bound"), {"lambda": draw[2]},
        lambda s, lam: not level_count_window_sup(s, lam)["ok"])])


def battery_window_strong(base_seed: int, trials: int) -> Records:
    draw = _draw(base_seed, ("window_strong",), trials, 12, levels=False)
    res = strong_l2_window_sup_batch(draw[1])
    return Records("window_strong", [_part(
        None, draw, res, ("lhs", "rhs"), {},
        lambda s, lam: not strong_l2_window_sup(s)["ok"])])


def battery_progression_weak(base_seed: int, trials: int) -> Records:
    parts = []
    per_ctx = -(-trials // len(WEAK_CONTEXTS))
    for primes in WEAK_CONTEXTS:
        ctx = GridContext(primes)
        draw = _draw(base_seed, ("progression_weak", primes), per_ctx, ctx.p,
                     levels=True)
        res = level_count_progression_sup_batch(draw[1], ctx, draw[2])
        parts.append(_part(
            primes, draw, res, ("count", "bound"), {"lambda": draw[2]},
            lambda s, lam: not level_count_progression_sup(s, ctx, lam)["ok"]))
    return Records("progression_weak", parts)


def battery_deviation_l2(base_seed: int, trials: int) -> Records:
    parts = []
    per_ctx = -(-trials // len(L2_CONTEXTS))
    for primes in L2_CONTEXTS:
        ctx = GridContext(primes)
        draw = _draw(base_seed, ("deviation_l2", primes), per_ctx,
                     min(ctx.p, 64), levels=False)
        res = deviation_sup_l2_bound_batch(draw[1], ctx)
        parts.append(_part(
            primes, draw, res, ("lhs", "rhs"), {"ratio_ok_ctx": ctx.ratio_ok},
            lambda s, lam: not deviation_sup_l2_bound(s, ctx)["ok"]))
    return Records("deviation_l2", parts)


def run_all(base_seed: int, trials: int = 1000) -> dict:
    """All four batteries; returns records plus a summary."""
    if not 1 <= trials <= MAX_TRIALS:
        raise TrialsOutOfRange(f"trials must be >= 1 and <= {MAX_TRIALS}, "
                               f"got {trials}")
    batteries = {
        "window_weak": battery_window_weak(base_seed, trials),
        "window_strong": battery_window_strong(base_seed, trials),
        "progression_weak": battery_progression_weak(base_seed, trials),
        "deviation_l2": battery_deviation_l2(base_seed, trials),
    }
    summary = {}
    for name, recs in batteries.items():
        lhs, rhs, ok = (np.concatenate([cols[k] for cols, bad in recs.parts])
                        for k in ("lhs", "rhs", "pass"))
        ratios = lhs[rhs != 0] / rhs[rhs != 0]
        summary[name] = {"trials": ok.size, "failures": int(ok.size - ok.sum()),
                         "max_ratio": ratios.max().item() if ratios.size else None}
    return {"records": batteries, "summary": summary}
