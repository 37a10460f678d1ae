"""The benchmark workloads: which CLI steps run, on which inputs.

Standard library only.  The driver imports this module to know which
artefacts each step writes (for the correctness gate); the worker imports it
to generate the inputs and run the steps.

Every workload is closed loop: one client runs each step after the previous
one has finished.  Repetition ``i`` of a run with benchmark seed ``s`` uses
program seed ``PROGRAM_SEEDS[(s + i) % 8]`` (a traced run moves on every
second repetition), so every run of eight or more repetitions covers the
whole pool and the benchmark seed only sets where the cycle starts.  The program only ever sees that seed inside generated
config files and argv.  The pool is finite so that every seeded output can
be checked against a reference recorded by ``record_refs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("pipeline", "construct-h10")

PROGRAM_SEEDS = tuple(range(20250809, 20250817))
DEFAULT_SEED = 0        # -> 20250809, the seed of scripts/run_demo_pipeline.py

# trials per battery in one pipeline repetition: small enough that a 60 s
# run holds about ten repetitions, whose mean resists the host's slow-downs;
# the traced run pools zops latencies over its repetitions
BATTERY_TRIALS = 250
ROTATION_CFG = ("system=rotation\nalpha=golden\nf_lo=0\nf_hi=1/2\n"
                "x0=random\nseed={seed}\n")

# horizon of each workload's ledger; the exact artefacts are keyed by it
HORIZON = {"pipeline": 6, "construct-h10": 10}


@dataclass(frozen=True)
class Step:
    """One operation of a workload: a primegrid CLI call.

    ``name`` is the stage span name, ``argv`` the CLI argument list, and
    ``outputs`` the artefact file names it writes into the work directory.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def program_seed(bench_seed: int, rep: int = 0) -> int:
    """Program seed of repetition ``rep`` of a run with benchmark seed ``bench_seed``."""
    return PROGRAM_SEEDS[(bench_seed + rep) % len(PROGRAM_SEEDS)]


def inputs_key(workload: str, seed: int) -> tuple:
    """What the program sees of a repetition: equal keys, equal inputs."""
    return (tuple(steps(workload, seed)),
            tuple(sorted(config_files(workload, seed).items())))


def config_files(workload: str, seed: int) -> dict[str, str]:
    """Simulation config files the workload reads, by file name."""
    if workload == "pipeline":
        return {"rotation.cfg": ROTATION_CFG.format(seed=seed)}
    return {}


def steps(workload: str, seed: int) -> list[Step]:
    """The workload's steps in run order (file names relative to the work dir)."""
    horizon = str(HORIZON[workload])
    construct = [
        Step("cli.gen-params",
             ("gen-params", "--profile", "demo", "--horizon", horizon,
              "--out", "ledger.json"),
             ("ledger.json",)),
        Step("cli.build-seq",
             ("build-seq", "--ledger", "ledger.json", "--out", "sequence.txt",
              "--summary-out", "blocks.json"),
             ("sequence.txt", "blocks.json")),
        Step("cli.verify",
             ("verify", "--ledger", "ledger.json", "--out", "verify.json"),
             ("verify.json",)),
    ]
    if workload == "construct-h10":
        return construct
    if workload == "pipeline":
        return construct + [
            Step("cli.ops-test",
                 ("ops-test", "--seed", str(seed), "--trials",
                  str(BATTERY_TRIALS), "--out", "battery.jsonl"),
                 ("battery.jsonl",)),
            Step("cli.simulate.rotation",
                 ("simulate", "--config", "rotation.cfg", "--ledger",
                  "ledger.json", "--out", "rotation.csv"),
                 ("rotation.csv",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
