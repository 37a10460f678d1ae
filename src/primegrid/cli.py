"""Command-line front end.

Subcommands: gen-params, build-seq, verify, ops-test, simulate, export.
Exit status: 0 success, 1 a check failed (including parameter infeasibility),
2 configuration error.  Data goes to files or stdout; diagnostics to stderr.
Identical configuration plus seed produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .constants import SCALAR_FIELDS, constants_for
from .dynsim import (
    BernoulliSystem,
    CyclicSystem,
    RotationSystem,
    convergence_report,
    count_bounds_check,
    indicator,
    sample_orbit,
)
from .ledger import (
    InfeasibleAtScale,
    LedgerError,
    NoPrimeWindow,
    extend_ledger,
    full_report,
    ledger_to_json,
    load_ledger,
    new_ledger,
    save_ledger,
)
from .rng import SplitMix64, derive_seed
from .sequence import (
    banach_density,
    block_summaries,
    build_store,
    gap_profile,
    verify_block,
    write_elements,
)
from .zbattery import run_all


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit_json(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config files: flat key=value lines, '#' comments

def read_config(path: str) -> dict:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: key {key!r} is set twice")
            out[key] = val.strip()
    return out


# ---------------------------------------------------------------------------
# subcommands

_OVERRIDABLE = SCALAR_FIELDS + ("gamma_main",)


def _apply_overrides(profile: str, pairs: list[str]):
    """Scalar constant overrides `name=fraction` on top of a profile table."""
    import dataclasses

    from .constants import Family

    table = constants_for(profile)
    if not pairs:
        return table
    changes: dict = {"profile": f"{profile}+custom"}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override must be name=value, got {pair!r}")
        name, val = pair.split("=", 1)
        name = name.strip()
        if name not in _OVERRIDABLE:
            raise ValueError(f"unknown constant {name!r}; overridable: "
                             f"{', '.join(_OVERRIDABLE)}")
        try:
            value = Fraction(val)
        except ZeroDivisionError:
            raise ValueError(f"override {pair!r} has a zero denominator") from None
        changes[name] = Family(value) if name == "gamma_main" else value
    return dataclasses.replace(table, **changes)


def cmd_gen_params(args) -> int:
    if args.horizon < 1:
        raise ValueError(f"--horizon must be >= 1, got {args.horizon}")
    try:
        table = _apply_overrides(args.profile, args.set or [])
        ledger = new_ledger(table)
        while len(ledger.blocks) < args.horizon:
            ledger = extend_ledger(ledger)
    except InfeasibleAtScale as exc:
        _err(f"InfeasibleAtScale: block {exc.m} needs {exc.what} >= {exc.required} "
             f"(cap {exc.cap})")
        return 1
    except NoPrimeWindow as exc:
        _err(f"NoPrimeWindow: {exc}")
        return 1
    except LedgerError as exc:
        _err(f"ledger check failed: {exc}")
        return 1
    if args.out:
        save_ledger(ledger, args.out)
    else:
        _emit_json(ledger_to_json(ledger), None)
    _err(f"ledger: {len(ledger.blocks)} blocks, "
         f"{ledger.complete_horizon} closed, profile {ledger.constants.profile}")
    return 0


def cmd_build_seq(args) -> int:
    ledger = load_ledger(args.ledger)
    if ledger.complete_horizon < 1:
        _err("ledger closes no blocks; extend it first")
        return 2
    store = build_store(ledger)
    # verify reports a wrong count as a failed check; build-seq writes no
    # sequence that disagrees with its ledger
    for m in range(1, store.n_blocks + 1):
        built, stated = store.block(m).size, ledger.block(m).count
        if built != stated:
            raise ValueError(f"ledger row {m} has count = {stated}, but its "
                             f"block builds {built} elements")
    write_elements(store, args.out)
    if args.summary_out:
        _emit_json(block_summaries(store), args.summary_out)
    _err(f"wrote {store.total} elements through horizon {store.horizon}")
    return 0


def cmd_verify(args) -> int:
    ledger = load_ledger(args.ledger)
    report: dict = {"profile": ledger.constants.profile, "checks": []}
    ok = True
    for rep in full_report(ledger):
        entry = {
            "kind": "ledger",
            "block": rep.m,
            "overall": rep.overall,
            "records": [
                {"name": r.name, "lhs": str(r.lhs), "rhs": str(r.rhs),
                 "op": r.op, "satisfied": r.satisfied}
                for r in rep.records
            ],
        }
        ok &= rep.overall
        report["checks"].append(entry)
    if ledger.complete_horizon >= 1:
        store = build_store(ledger)
        for m in range(1, ledger.complete_horizon + 1):
            rep = verify_block(ledger, store, m)
            ok &= rep.ok
            report["checks"].append({
                "kind": "block_windows", "block": m, "overall": rep.ok,
                "n_windows": rep.n_windows,
                "min_ratio": str(rep.min_ratio), "max_ratio": str(rep.max_ratio),
                "min_gap": rep.min_gap, "k1_edge": rep.k1_edge,
            })
        for rec in count_bounds_check(ledger, store):
            ok &= rec["ok"]
            report["checks"].append({
                "kind": "count_bounds", "block": rec["m"], "overall": rec["ok"],
            })
        report["gap_profile"] = gap_profile(store)
        ds = []
        L = 1000
        while L <= store.horizon:
            ds.append({"L": L, "density": str(banach_density(store, L))})
            L *= 10
        report["banach_density"] = ds
    report["overall"] = ok
    _emit_json(report, args.out)
    _err("verify: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_ops_test(args) -> int:
    res = run_all(args.seed, trials=args.trials)
    lines = []
    for name, recs in sorted(res["records"].items()):
        for rec in recs:
            lines.append(json.dumps(rec, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    failures = sum(v["failures"] for v in res["summary"].values())
    for name, v in sorted(res["summary"].items()):
        _err(f"{name}: trials={v['trials']} failures={v['failures']} "
             f"max_ratio={v['max_ratio']}")
    return 0 if failures == 0 else 1


_SIMULATE_KEYS = ("system", "alpha", "f_lo", "f_hi", "x0", "seed",
                  "cyclic_p", "residues", "prob", "checkpoints")

# cap on the cyclic period: the system holds its residue table as a P-entry
# tuple and then as a P-entry int64 array, about 80 MB each at the cap, while
# the demo block periods stay below 10^5 through horizon 10
MAX_CYCLIC_P = 10**7


def _build_system(cfg: dict):
    system = cfg.get("system", "rotation")
    if system == "rotation":
        alpha = cfg.get("alpha", "golden")
        sys_obj = RotationSystem.golden() if alpha == "golden" \
            else RotationSystem.from_fraction(Fraction(alpha))
        obs = indicator(Fraction(cfg.get("f_lo", "0")),
                        Fraction(cfg.get("f_hi", "1/2")))
        return sys_obj, obs
    if system == "cyclic":
        P = int(cfg["cyclic_p"])
        if not 1 <= P <= MAX_CYCLIC_P:
            raise ValueError(f"cyclic_p must be in [1, {MAX_CYCLIC_P}], got {P}")
        chosen = set()
        for part in cfg.get("residues", "0").split(","):
            a, _, b = part.partition("-")
            lo, hi = int(a), int(b or a)
            if not 0 <= lo <= hi < P:
                raise ValueError(f"residues {part.strip()!r} is not a nonempty "
                                 f"range inside [0, {P})")
            chosen.update(range(lo, hi + 1))
        table = tuple(1 if r in chosen else 0 for r in range(P))
        return CyclicSystem(P, table), None
    if system == "bernoulli":
        if "seed" not in cfg:
            raise ValueError("bernoulli systems need seed=")
        return BernoulliSystem(Fraction(cfg.get("prob", "1/2")),
                               derive_seed(int(cfg["seed"]), "orbit")), None
    raise ValueError(f"unknown system {system!r}")


def _checkpoints(spec: str, store):
    """checkpoints=: blocks+log (the default, as None), blocks, or a list."""
    if spec in ("blocks+log", ""):
        return None
    if spec == "blocks":
        return list(store.betas[1:])
    points = [int(x) for x in spec.split(",")]
    for N in points:
        if not 1 <= N <= store.horizon:
            raise ValueError(f"checkpoint {N} outside [1, {store.horizon}]")
    return points


def _start_point(cfg: dict) -> Fraction:
    x0_text = cfg.get("x0", "0")
    if x0_text != "random":
        return Fraction(x0_text)
    if "seed" not in cfg:
        raise ValueError("x0=random needs seed=")
    rng = SplitMix64(derive_seed(int(cfg["seed"]), "x0"))
    return Fraction(rng.next_u64(), 1 << 64)


def cmd_simulate(args) -> int:
    cfg = read_config(args.config) if args.config else {}
    try:
        unknown = sorted(set(cfg) - set(_SIMULATE_KEYS))
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}; simulate takes "
                             f"{', '.join(_SIMULATE_KEYS)}")
        ledger = load_ledger(args.ledger)
        system, obs = _build_system(cfg)
        x0 = _start_point(cfg)
        store = build_store(ledger)
        checkpoints = _checkpoints(cfg.get("checkpoints", ""), store)
    except (ValueError, KeyError, ZeroDivisionError, LedgerError) as exc:
        _err(f"config error: {exc}")
        return 2
    orbit = sample_orbit(system, x0, store.horizon, obs)
    rep = convergence_report(orbit, store, checkpoints)
    rep.to_csv(args.out)
    _err(f"simulate: {len(rep.rows)} checkpoints, final deviation "
         f"{rep.final_deviation!r}, trend slope {rep.trend_slope!r}")
    return 0


def cmd_export(args) -> int:
    rows: list[dict] = []
    with open(args.infile, encoding="utf-8") as fh:
        head = fh.read(1)
        fh.seek(0)
        if head == "{" or args.infile.endswith((".jsonl", ".ndjson")):
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    row = json.loads(line)
                    if not isinstance(row, dict):
                        raise ValueError(f"{args.infile}:{lineno}: a row is a "
                                         f"JSON object, not "
                                         f"{type(row).__name__}")
                    rows.append(row)
        else:
            rows.extend(dict(r) for r in csv.DictReader(fh))
    if not rows:
        _err("no rows to export")
        return 2
    cols = sorted({k for r in rows for k in r if not isinstance(r[k], (dict, list))})
    if args.format == "csv":
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
            w.writeheader()
            for r in rows:
                w.writerow({k: r.get(k, "") for k in cols})
    else:
        _emit_json([{k: r.get(k) for k in cols} for r in rows], args.out)
    _err(f"exported {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call shares it."""
    ap = argparse.ArgumentParser(
        prog="primegrid",
        description="Sparse good-sequence construction, operator checks, and "
                    "ergodic average experiments.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-params", help="extend a parameter ledger")
    g.add_argument("--profile", choices=("faithful", "demo"), default="demo")
    g.add_argument("--horizon", type=int, required=True,
                   help="number of blocks to give parameters (the last stays open)")
    g.add_argument("--set", action="append", metavar="NAME=FRACTION",
                   help="override a scalar table constant (repeatable)")
    g.add_argument("--out", default=None)
    g.set_defaults(fn=cmd_gen_params)

    b = sub.add_parser("build-seq", help="write the sequence elements")
    b.add_argument("--ledger", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--summary-out", default=None)
    b.set_defaults(fn=cmd_build_seq)

    v = sub.add_parser("verify", help="run every ledger/sequence/count check")
    v.add_argument("--ledger", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("ops-test", help="randomized maximal-inequality batteries")
    o.add_argument("--seed", type=int, required=True)
    o.add_argument("--trials", type=int, default=1000)
    o.add_argument("--out", default=None)
    o.set_defaults(fn=cmd_ops_test)

    s = sub.add_parser("simulate", help="subsequence-average convergence run")
    s.add_argument("--config", default=None)
    s.add_argument("--ledger", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_simulate)

    e = sub.add_parser("export", help="convert result files between csv/json")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:
        _err(f"config error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
