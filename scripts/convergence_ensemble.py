#!/usr/bin/env python3
"""Ensemble convergence experiment: many starting points, one sequence.

Samples the golden-rotation orbit only at the sequence elements, so a 100
point ensemble over a multi-million horizon runs in seconds.  Emits a CSV of
final-checkpoint deviations per starting point plus percentile lines.
"""

import argparse
import csv
import sys
from fractions import Fraction

from primegrid.dynsim import RotationSystem, indicator, sample_orbit, subseq_average
from primegrid.ledger import build_ledger
from primegrid.rng import SplitMix64, derive_seed
from primegrid.sequence import build_store


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=100)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument("--f-lo", default="0")
    ap.add_argument("--f-hi", default="1/2")
    ap.add_argument("--out", default="ensemble.csv")
    args = ap.parse_args()

    ledger = build_ledger("demo", 6)
    store = build_store(ledger)
    system = RotationSystem.golden()
    obs = indicator(Fraction(args.f_lo), Fraction(args.f_hi))
    mean = float(obs.mean)
    rng = SplitMix64(derive_seed(args.seed, "ensemble"))

    rows = []
    for i in range(args.points):
        x0 = Fraction(rng.next_u64(), 1 << 64)
        orbit = sample_orbit(system, x0, store.horizon, obs)
        a = float(subseq_average(orbit, store, store.horizon))
        rows.append((i, str(x0), a, abs(a - mean)))

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["point", "x0", "A_final", "deviation"])
        w.writerows(rows)

    devs = sorted(r[3] for r in rows)
    n = len(devs)
    print(f"horizon {store.horizon}, {store.total} sequence elements")
    for label, q in (("median", 0.5), ("p90", 0.9), ("max", 1.0)):
        print(f"{label} deviation: {devs[min(n - 1, int(q * n))]:.3e}")
    print(f"within 1e-2: {sum(d < 1e-2 for d in devs)}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
