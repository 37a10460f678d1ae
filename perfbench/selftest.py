"""Show that the correctness gate can fail, and that it tolerates last-ulp noise.

    python3 perfbench/selftest.py

Run from the root of a checkout (about 15 s).  Runs the pipeline workload
once, then gates the pristine outputs and mutated copies of them.  Each
wrong output must count as exactly one failed operation; a last-ulp change
in a float must count as none.  Also checks that BENCHMARK.json lists the
metrics the benchmark reports.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import gate
import run
import tracing
import workloads


def flip_byte(path: Path) -> None:
    """Change the last digit of the middle line of sequence.txt."""
    lines = path.read_text().splitlines(keepends=True)
    i = len(lines) // 2
    last = lines[i][-2]
    lines[i] = lines[i][:-2] + ("1" if last != "1" else "2") + "\n"
    path.write_text("".join(lines))


def flip_pass(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[0])
    rec["pass"] = not rec["pass"]
    lines[0] = json.dumps(rec, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def scale_battery_lhs(factor: float | None):
    """Scale a nonzero lhs, or move it by one ulp when factor is None."""
    def mutate(path: Path) -> None:
        lines = path.read_text().splitlines(keepends=True)
        i = next(i for i in range(len(lines) // 2, len(lines))
                 if json.loads(lines[i])["lhs"] != 0)
        rec = json.loads(lines[i])
        rec["lhs"] = (math.nextafter(rec["lhs"], math.inf) if factor is None
                      else rec["lhs"] * factor)
        lines[i] = json.dumps(rec, sort_keys=True) + "\n"
        path.write_text("".join(lines))
    return mutate


def scale_csv_value(factor: float | None):
    """Scale A in the last convergence row, or move it by one ulp."""
    def mutate(path: Path) -> None:
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[-1].rstrip("\n").split(",")
        a = float(cells[1])
        cells[1] = repr(math.nextafter(a, math.inf) if factor is None
                        else a * factor)
        lines[-1] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
    return mutate


CASES = [
    # (description, artefact, mutation, failed operations expected)
    ("pristine outputs", None, None, 0),
    ("one byte of sequence.txt changed", "sequence.txt", flip_byte, 1),
    ("one battery pass flag flipped", "battery.jsonl", flip_pass, 1),
    ("one battery lhs off by 1e-6", "battery.jsonl", scale_battery_lhs(1 + 1e-6), 1),
    ("one convergence value off by 1e-9", "rotation.csv", scale_csv_value(1 + 1e-9), 1),
    ("one battery lhs moved by one ulp", "battery.jsonl", scale_battery_lhs(None), 0),
    ("one convergence value moved by one ulp", "rotation.csv", scale_csv_value(None), 0),
]


def check_benchmark_json(root: Path) -> bool:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    ok = (e2e == list(run.END_TO_END)
          and layers == [name for name, _, _ in tracing.PER_LAYER]
          and [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the reported metrics")
    return ok


def main() -> int:
    root = Path.cwd()
    refs = json.loads((Path(__file__).resolve().parent / "refs.json").read_text())
    seed = workloads.program_seed(workloads.DEFAULT_SEED)
    steps = workloads.steps("pipeline", seed)
    base = run.WORK_ROOT / "selftest"
    ok = check_benchmark_json(root)
    try:
        res = run.spawn(root, "pipeline", seed, base / "pristine")
        if any(code != 0 for code in res["codes"].values()):
            print(f"pipeline step failed: {res['codes']}\n{res['stderr']}")
            return 1
        for desc, artefact, mutate, expected in CASES:
            workdir = base / "case"
            if workdir.exists():
                shutil.rmtree(workdir)
            shutil.copytree(base / "pristine", workdir)
            if mutate is not None:
                mutate(workdir / artefact)
            failed = sum(gate.step_failed(refs, 6, seed, workdir, s) for s in steps)
            good = failed == expected
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {desc}: {failed} failed "
                  f"operation(s), expected {expected}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
