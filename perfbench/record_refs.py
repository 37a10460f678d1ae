"""Record the references the correctness gate compares against.

    python3 perfbench/record_refs.py

Run from the root of a checkout, at the commit whose outputs are the
reference.  Runs construct-h10 once and pipeline once per program seed
(about two minutes) and rewrites perfbench/refs.json.  The exact artefacts
must come out identical for every seed, or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    root = Path.cwd()
    refs: dict = {"exact": {}, "seeds": {}}
    jobs = [("construct-h10", workloads.PROGRAM_SEEDS[0])]
    jobs += [("pipeline", s) for s in workloads.PROGRAM_SEEDS]
    for workload, seed in jobs:
        workdir = run.WORK_ROOT / "refs" / f"{workload}-{seed}"
        res = run.spawn(root, workload, seed, workdir)
        for step in workloads.steps(workload, seed):
            if res["codes"][step.name] != 0:
                print(f"{workload} seed {seed}: {step.name} exited with "
                      f"{res['codes'][step.name]}\n{res['stderr']}", file=sys.stderr)
                return 1
            for name in step.outputs:
                fp = gate.fingerprint(name, workdir / name)
                if name in gate.EXACT_ARTEFACTS:
                    table = refs["exact"].setdefault(
                        f"h{workloads.HORIZON[workload]}", {})
                else:
                    table = refs["seeds"].setdefault(str(seed), {})
                if table.setdefault(name, fp) != fp:
                    print(f"{workload} seed {seed}: {name} differs from the "
                          "same artefact of another run", file=sys.stderr)
                    return 1
        shutil.rmtree(workdir)
        print(f"recorded {workload} seed {seed} ({res['run_s']:.1f} s)")
    out = Path(__file__).resolve().parent / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
