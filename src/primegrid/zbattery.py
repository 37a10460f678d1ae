"""Seeded randomized batteries for the maximal-inequality constants.

Four inequalities are hammered with random signals; none may ever fail:

* window weak (1,1), constant 2;
* one-sided strong window bound in l2, constant 2;
* progression-mean weak (1,1), constant 4;
* deviation-supremum summed-square bound, constant 32/K (times the signal
  bound M and its l1 mass).

Each trial is reproducible from (base seed, battery name, context, trial
index) through the fixed splitmix64 derivation.  A violation is shrunk
greedily (zeroing and trimming samples while it persists) and dumped as a
replayable JSON record; the run then reports failure.
"""

from __future__ import annotations

from fractions import Fraction

from .rng import SplitMix64, derive_seed
from .zops import (
    FiniteSignal,
    GridContext,
    deviation_sup_l2_bound,
    level_count_progression_sup,
    level_count_window_sup,
    strong_l2_window_sup,
)

F = Fraction

WEAK_CONTEXTS = ((2, 3), (3, 5), (5, 7))
L2_CONTEXTS = ((2, 3), (3, 5), (5, 7), (5, 7, 11))


def random_signal(rng: SplitMix64, span_scale: int) -> FiniteSignal:
    """Random signal; span and offset scale with the context.

    The values are the floats num / den with |num| <= 8 and den in {1, 2, 4},
    so each equals the rational num/den exactly; at least one is nonzero.
    """
    length = rng.randint(1, 4 * span_scale)
    lo = rng.randint(-2 * span_scale, span_scale)
    vals = []
    for _ in range(length):
        num = rng.randint(-8, 8)
        den = (1, 2, 4)[rng.randint(0, 2)]
        vals.append(num / den)
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


def battery_window_weak(base_seed: int, trials: int) -> list[dict]:
    out = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "window_weak", trial)
        rng = SplitMix64(seed)
        sig = random_signal(rng, 12)
        lam = (0.02 + 1.4 * rng.uniform()) * sig.l1
        res = level_count_window_sup(sig, lam)
        rec = _record("window_weak", None, seed, trial,
                      res["count"], res["bound"], res["ok"],
                      {"lambda": float(lam)})
        if not res["ok"]:
            bad = shrink_signal(
                sig, lambda s: not level_count_window_sup(s, lam)["ok"])
            rec["counterexample"] = signal_json(bad)
        out.append(rec)
    return out


def battery_window_strong(base_seed: int, trials: int) -> list[dict]:
    out = []
    for trial in range(trials):
        seed = derive_seed(base_seed, "window_strong", trial)
        rng = SplitMix64(seed)
        sig = random_signal(rng, 12)
        res = strong_l2_window_sup(sig)
        rec = _record("window_strong", None, seed, trial,
                      res["lhs"], res["rhs"], res["ok"])
        if not res["ok"]:
            bad = shrink_signal(sig, lambda s: not strong_l2_window_sup(s)["ok"])
            rec["counterexample"] = signal_json(bad)
        out.append(rec)
    return out


def battery_progression_weak(base_seed: int, trials: int) -> list[dict]:
    out = []
    per_ctx = -(-trials // len(WEAK_CONTEXTS))
    for primes in WEAK_CONTEXTS:
        ctx = GridContext(primes)
        for trial in range(per_ctx):
            seed = derive_seed(base_seed, "progression_weak", primes, trial)
            rng = SplitMix64(seed)
            sig = random_signal(rng, ctx.p)
            lam = (0.02 + 1.4 * rng.uniform()) * sig.l1
            res = level_count_progression_sup(sig, ctx, lam)
            rec = _record("progression_weak", primes, seed, trial,
                          res["count"], res["bound"], res["ok"],
                          {"lambda": float(lam)})
            if not res["ok"]:
                bad = shrink_signal(
                    sig,
                    lambda s: not level_count_progression_sup(s, ctx, lam)["ok"])
                rec["counterexample"] = signal_json(bad)
            out.append(rec)
    return out


def battery_deviation_l2(base_seed: int, trials: int) -> list[dict]:
    out = []
    per_ctx = -(-trials // len(L2_CONTEXTS))
    for primes in L2_CONTEXTS:
        ctx = GridContext(primes)
        for trial in range(per_ctx):
            seed = derive_seed(base_seed, "deviation_l2", primes, trial)
            rng = SplitMix64(seed)
            sig = random_signal(rng, min(ctx.p, 64))
            res = deviation_sup_l2_bound(sig, ctx)
            rec = _record("deviation_l2", primes, seed, trial,
                          res["lhs"], res["rhs"], res["ok"],
                          {"ratio_ok_ctx": ctx.ratio_ok})
            if not res["ok"]:
                bad = shrink_signal(
                    sig, lambda s: not deviation_sup_l2_bound(s, ctx)["ok"])
                rec["counterexample"] = signal_json(bad)
            out.append(rec)
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
