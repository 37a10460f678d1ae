"""Fixed CPU tasks that gauge how fast the host runs at the moment.

On a shared host the same code runs up to 1.8 times slower for minutes at a
time, when other tenants load the physical cores.  The worker times its
workload's task just before and just after each repetition, on the same
core, and the benchmark reports the repetition's wall time divided by it
(``run_ref``), which such slow-downs scale alike.

The tasks use only the standard library and numpy, never primegrid, so a
change to the program cannot change them.  Each copies the kinds of work
its workload does, since a task that differs tracks the host's speed less
well: interpreted Python slows down more than numpy passes over large
arrays when the host is loaded.  With the pipeline's task, the ratio on
construct-h10 spread more than its wall time did.  Both tasks stay well
under their workload's peak RSS.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

PERIOD = 30_000
STRIDE = 700
ORBIT = 210_000
ORBIT_MASK = (1 << 96) - 1
BUCKETS = 175_000
ARRAY = 1 << 18
ARRAY_PASSES = 14
LINES = 120_000

SPAN = 2_000_000
MERGE_PRIMES = (23, 29, 31, 37, 41)
WINDOWS = 100_000
TEXT_LINES = 60_000


def _interpreted_task() -> None:
    """The pipeline's kinds of work, in about equal shares of time.

    Exact ``Fraction`` averages of strided sums over a Python list (zops'
    grid averages), a fixed-point big-integer orbit stored element by element
    into a numpy array (dynsim's dense rotation sampling), and dict updates
    and a sort (bookkeeping); in half shares, numpy int64 masks (blocksets)
    and formatting integers as text (sequence.write_elements).
    """
    values = list(range(1, PERIOD + 1))
    acc = Fraction(0)
    for q in (7, 11, 13):
        count = PERIOD // q
        for i in range(0, PERIOD, STRIDE):
            acc += Fraction(sum(values[(i + k * q) % PERIOD] for k in range(count)),
                            count)

    orbit = np.empty(ORBIT, dtype=np.int64)
    cur, alpha = 12345678901234567890123, 0x9E3779B97F4A7C15F39CC060
    lo, hi = 1 << 90, 1 << 95
    for n in range(ORBIT):
        orbit[n] = 1 if lo <= cur < hi else 0
        cur = (cur + alpha) & ORBIT_MASK

    buckets: dict[int, int] = {}
    for i in range(BUCKETS):
        key = (i * 7919) % 10007
        buckets[key] = buckets.get(key, 0) + i
    ranked = sorted(buckets.items(), key=lambda kv: kv[1])

    pts = np.arange(ARRAY, dtype=np.int64)
    for r in range(ARRAY_PASSES):
        keep = (pts * (r + 3)) % 7 != 0
        acc += int(pts[keep].sum() % 11)
    chars = 0
    for block in range(0, LINES, 10_000):
        chars += len("".join([f"{v}\n" for v in range(block, block + 10_000)]))

    if acc <= 0 or not orbit.any() or len(ranked) != 10007 or chars < LINES:
        raise AssertionError("reference task lost its work")


def _array_task() -> None:
    """construct-h10's kinds of work: numpy passes over arrays of millions.

    Progressions merged with ``np.unique`` (blocksets, sequence.build_block),
    window counts by ``searchsorted`` (sequence.verify_block) and integers
    formatted as text (sequence.write_elements).
    """
    per_q = [np.arange(q, SPAN, q, dtype=np.int64) for q in MERGE_PRIMES]
    merged = np.unique(np.concatenate(per_q))
    edges = np.arange(0, SPAN, SPAN // WINDOWS, dtype=np.int64)
    counts = np.diff(np.searchsorted(merged, edges, side="left"))
    text = "".join([f"{v}\n" for v in merged[:TEXT_LINES].tolist()])
    if int(counts.sum()) <= 0 or len(text) < TEXT_LINES:
        raise AssertionError("reference task lost its work")


TASKS = {"pipeline": _interpreted_task, "construct-h10": _array_task}


def reference_s(workload: str) -> float:
    """Wall seconds of one run of the workload's fixed task."""
    start = time.perf_counter()
    TASKS[workload]()
    return time.perf_counter() - start
