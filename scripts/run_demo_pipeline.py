#!/usr/bin/env python3
"""End-to-end demo pipeline: ledger -> sequence -> verification -> experiment.

Writes everything under an output directory (default ./out) and prints a
short summary.  Equivalent to chaining the CLI subcommands; kept as a script
so a full desk run is one command.  Each step's wall time and the process's
peak resident set size after it (ru_maxrss) go to stderr.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from primegrid.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--horizon", type=int, default=6,
                    help="blocks to parameterize (one more than built blocks)")
    ap.add_argument("--seed", type=int, default=20250809)
    args = ap.parse_args()

    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    ledger = out / "ledger.json"
    t0 = time.time()

    steps = [
        ["gen-params", "--profile", "demo", "--horizon", str(args.horizon),
         "--out", str(ledger)],
        ["build-seq", "--ledger", str(ledger), "--out", str(out / "sequence.txt"),
         "--summary-out", str(out / "blocks.json")],
        ["verify", "--ledger", str(ledger), "--out", str(out / "verify.json")],
        ["ops-test", "--seed", str(args.seed), "--trials", "1000",
         "--out", str(out / "battery.jsonl")],
    ]
    cfg = out / "experiment.cfg"
    cfg.write_text("system=rotation\nalpha=golden\nf_lo=0\nf_hi=1/2\n"
                   f"x0=random\nseed={args.seed}\n")
    steps.append(["simulate", "--config", str(cfg), "--ledger", str(ledger),
                  "--out", str(out / "convergence.csv")])

    for argv in steps:
        start = time.perf_counter()
        code = cli_main(argv)
        if code != 0:
            print(f"step {argv[0]} failed with exit {code}", file=sys.stderr)
            return code
        # ru_maxrss is in KiB on Linux
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"step {argv[0]}: {time.perf_counter() - start:.3f} s, "
              f"ru_maxrss {peak_mb:.1f} MB", file=sys.stderr)
    print(f"pipeline complete in {time.time() - t0:.1f}s; outputs in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
