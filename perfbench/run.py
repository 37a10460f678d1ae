"""primegrid benchmark: one command, two workloads, gated outputs.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 60 --trace 0

Run from the root of a checkout: the program is imported from ``./src``.
Each repetition of the workload is a fresh single-threaded process
(``worker.py``); repetitions run back to back until ``--seconds`` is used up,
so the loop is closed with one client.  Every output of every repetition is
checked against references recorded at the benchmark's commit
(``gate.py``); a failed CLI step or a wrong output is a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics: trimmed
means over the repetitions (``balanced_mean``), and the median ``setup_s``.
The bounded time is ``run_ref``: each repetition's wall time over that of a
fixed reference task (``reference.py``) timed in the same process around
it, so that the shared host's slow-downs cancel; wall ``run_s`` is printed
beside it.  With ``--trace 1`` untraced and traced repetitions alternate
and the last line reports the per-layer metrics of ``tracing.py``; the
tracing overhead is the traced minus the untraced mean ``run_s``.
Human-readable lines, with sample counts, come before the last line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_ROOT = Path(".perfbench-runs")
SETUP_PROBES = 3          # set-up-only processes per run, besides each repetition's
REP_TIMEOUT_S = 150

# the metrics --trace 0 reports; the others it prints are wall-clock figures
END_TO_END = ("run_ref", "setup_s", "peak_rss_mb")
# the workload's own unit of work per second of run_s, printed
WORK_METRIC = {
    "pipeline": "trials_per_s",
    "construct-h10": "elements_per_s",
}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


ADDR_NO_RANDOMIZE = 0x0040000
QUERY_PERSONALITY = 0xFFFFFFFF


class WorkerFailed(Exception):
    pass


def no_aslr() -> None:
    """Start the worker without address-space randomisation.

    With it, glibc's heap layout differs from process to process, and the
    peak RSS of construct-h10 moves between 159 and 173 MB.  Where the
    personality call is not permitted the worker runs randomised.
    """
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(QUERY_PERSONALITY)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def spawn(root: Path, workload: str, seed: int, workdir: Path,
          trace_id: str | None = None, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    if workdir.exists():
        shutil.rmtree(workdir)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if trace_id:
        cmd += ["--trace", trace_id]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=REP_TIMEOUT_S, preexec_fn=no_aslr)
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-3000:])
    res = json.loads(result_path.read_text(encoding="utf-8"))
    if Path(res["primegrid"]).resolve().parent.parent != (root / "src").resolve():
        raise WorkerFailed(f"primegrid imported from {res['primegrid']}, "
                           f"not from {root / 'src'}")
    res["setup_s"] = res["ready"] - start
    res["stderr"] = proc.stderr
    return res


def work_units(workload: str, workdir: Path) -> int:
    """Work the repetition completed: battery trials, or elements built."""
    try:
        if workload == "pipeline":
            with open(workdir / "battery.jsonl", encoding="utf-8") as fh:
                return sum(1 for _ in fh)
        blocks = json.loads((workdir / "blocks.json").read_text())
        return sum(b["size"] for b in blocks)
    except (OSError, ValueError, KeyError):
        return 0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def run_ref(rep: dict) -> float:
    """Wall time of the repetition over that of the reference task around it."""
    return rep["run_s"] / statistics.mean(rep["ref_s"])


def balanced_mean(reps: list[dict], value) -> float:
    """Trimmed mean over input sets of the mean of ``value`` per input set.

    Pipeline repetitions cycle through the program seeds, and the seeds'
    battery trials cost up to 15% apart.  Averaging each seed first weighs
    every seed once, however many times a run happened to draw it, so runs
    that start the cycle at different seeds measure the same mix.  With a
    single input set (construct-h10) the repetitions themselves are averaged.
    Dropping the lowest and the highest value keeps one stalled repetition
    out.  Over five 60 s pipeline runs this spread 0.04 of its median, where
    the median of the per-seed medians spread 0.07.
    """
    groups = defaultdict(list)
    for r in reps:
        groups[r["inputs"]].append(value(r))
    points = sorted(statistics.mean(v) for v in groups.values()) if len(groups) > 1 \
        else sorted(next(iter(groups.values()), []))
    if len(points) >= 5:
        points = points[1:-1]
    return statistics.mean(points) if points else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "primegrid" / "__init__.py").is_file():
        print("perfbench: run from the root of a primegrid checkout "
              "(src/primegrid not found)", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text(encoding="utf-8"))
    horizon = workloads.HORIZON[args.workload]
    base = WORK_ROOT / args.workload
    deadline = time.monotonic() + args.seconds

    setups, reps = [], []
    attempted = failed = 0
    try:
        for i in range(SETUP_PROBES):
            setups.append(spawn(root, args.workload, workloads.program_seed(args.seed),
                                base / f"setup{i}", setup_only=True)["setup_s"])
        while True:
            # traced runs alternate untraced and traced repetitions, each
            # pair on one program seed, so the two means see the same inputs
            traced = args.trace == 1 and len(reps) % 2 == 1
            seed = workloads.program_seed(
                args.seed, len(reps) // 2 if args.trace else len(reps))
            workdir = base / f"rep{len(reps)}"
            run_id = f"{args.workload}-{args.seed}-{len(reps)}"
            t0 = time.monotonic()
            res = spawn(root, args.workload, seed, workdir,
                        trace_id=run_id if traced else None)
            last = time.monotonic() - t0
            setups.append(res["setup_s"])
            for step in workloads.steps(args.workload, seed):
                attempted += 1
                failed += (res["codes"].get(step.name) != 0
                           or gate.step_failed(refs, horizon, seed, workdir, step))
            res["seed"] = seed
            res["inputs"] = workloads.inputs_key(args.workload, seed)
            res["units"] = work_units(args.workload, workdir)
            if traced:
                shutil.copy(workdir / "spans.jsonl",
                            WORK_ROOT / f"{args.workload}-spans.jsonl")
            reps.append(res)
            shutil.rmtree(workdir)
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and time.monotonic() + last > deadline:
                break
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if base.exists():
            shutil.rmtree(base)

    plain = [r for r in reps if "trace" not in r]
    traced = [r for r in reps if "trace" in r]
    n_inputs = len({r["inputs"] for r in plain})
    balanced = f"trimmed mean over {n_inputs} input sets of {len(plain)} repetitions"
    shown = {
        "run_ref": (balanced_mean(plain, run_ref), "ratio", balanced),
        "setup_s": (median(setups), "s", f"median of {len(setups)}"),
        "peak_rss_mb": (balanced_mean(plain, lambda r: r["peak_rss_mb"]), "MB",
                        balanced),
        # wall-clock figures, not bounded: the host's speed moves them
        "run_s": (balanced_mean(plain, lambda r: r["run_s"]), "s", balanced),
        f"{WORK_METRIC[args.workload]}": (
            balanced_mean(plain, lambda r: r["units"] / r["run_s"]), "1/s", balanced),
        "reference_s": (median([statistics.mean(r["ref_s"]) for r in plain]), "s",
                        f"median of {len(plain)}"),
    }
    print(f"primegrid benchmark: workload {args.workload}, seed {args.seed} "
          f"(program seeds {sorted({r['seed'] for r in reps})}), trace {args.trace}")
    print(f"closed loop, 1 client; {len(plain)} untraced and {len(traced)} traced "
          f"repetitions, each a fresh process with 1 thread")
    for name, (value, unit, note) in shown.items():
        print(f"  {name:<38} {value:>14.6g} {unit:<5} {note}")
    print(f"  {'ops_failed_frac':<38} {failed / attempted:>14.6g}       "
          f"{failed} of {attempted} operations failed")
    print("  run_s / run_ref of each repetition: " + ", ".join(
        f"{r['run_s']:.3f}/{run_ref(r):.2f}" + (" (traced)" if "trace" in r else "")
        for r in reps))

    correct = failed == 0
    if args.trace == 0:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u, _) in shown.items() if k in END_TO_END}
    else:
        metrics, consistent = layer_metrics(plain, traced)
        correct = correct and consistent
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Median per-layer metrics over the traced repetitions, printed too."""
    trace_runs = [r["trace"] for r in traced]
    values = {name: median([t.get(name, 0.0) for t in trace_runs])
              for name, _, _ in tracing.PER_LAYER}
    # a repetition makes too few calls per kernel for a p99 of its own
    values.update(tracing.latency_percentiles(
        [r.get("latencies_ms", {}) for r in traced]))
    untraced = balanced_mean(plain, lambda r: r["run_s"])
    traced_s = balanced_mean(traced, lambda r: r["run_s"])
    values["trace.untraced_run_s"] = untraced
    values["trace.traced_run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced
    values["trace.reference_s"] = median(
        [statistics.mean(r["ref_s"]) for r in plain + traced])
    values["trace.stage_coverage"] = median(
        [r["trace"].get("trace.stage_s", 0.0) / r["run_s"] for r in traced])

    consistent = all(len({t.get(c, 0) for t in trace_runs}) == 1
                     for c in tracing.EXACT_COUNTERS)
    print(f"traced run ({len(traced)} traced, {len(plain)} untraced repetitions): "
          f"run_s untraced {untraced:.4f} s, traced {traced_s:.4f} s, "
          f"overhead {traced_s - untraced:+.4f} s; stage spans cover "
          f"{100 * values['trace.stage_coverage']:.1f}% of traced run_s")
    print("  layer self time: " + ", ".join(
        f"{layer} {values[f'{layer}.self_s']:.4f} s" for layer in tracing.LAYERS))
    if not consistent:
        print("  exact counters differ between traced repetitions")
    for name, unit, _ in tracing.PER_LAYER:
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.PER_LAYER}
    return metrics, consistent


if __name__ == "__main__":
    sys.exit(main())
