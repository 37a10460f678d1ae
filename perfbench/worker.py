"""One repetition of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload pipeline --seed 20250809 \\
        --workdir .perfbench-runs/rep0 [--trace RUN_ID] [--setup-only]

Set-up is the interpreter start, ``import primegrid`` (numpy, scipy) and
generating the inputs (config files, argv) in the work directory.  The timed
run executes the workload's steps back to back through
``primegrid.cli.main``; the fixed task of ``reference.py`` is timed just
before and just after it.  The result goes to
``result.json`` in the work directory; with ``--trace`` the spans go to
``spans.jsonl`` next to it.  The driver (``run.py``) starts this process,
checks the artefacts and aggregates the repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads


def run_step(cli, step: workloads.Step) -> int:
    """Exit status of one step; an exception counts as a failed step."""
    try:
        return cli.main(list(step.argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="program seed")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace", default=None, metavar="RUN_ID")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import primegrid.cli as cli

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    for name, text in workloads.config_files(args.workload, args.seed).items():
        Path(name).write_text(text, encoding="utf-8")
    steps = workloads.steps(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.trace)
        tracing.install(tracer)
    ready = time.monotonic()
    result = {"ready": ready, "primegrid": cli.__file__}
    if not args.setup_only:
        ref_before = reference.reference_s(args.workload)
        codes = {}
        start = time.monotonic()
        for step in steps:
            if tracer is None:
                codes[step.name] = run_step(cli, step)
            else:
                with tracer.span(step.name):
                    codes[step.name] = run_step(cli, step)
        result["run_s"] = time.monotonic() - start
        result["ref_s"] = [ref_before, reference.reference_s(args.workload)]
        result["codes"] = codes
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracing.summarize(tracer)
            result["latencies_ms"] = tracer.latencies_ms
            tracer.write("spans.jsonl")
    with open("result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
