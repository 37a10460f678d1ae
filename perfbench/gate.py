"""Correctness gate: compare a workload's artefacts with recorded references.

Standard library only.  ``refs.json`` (written by ``record_refs.py``) holds

* ``exact``: sha256 digests of ``ledger.json``, ``sequence.txt``,
  ``blocks.json`` and ``verify.json``, per horizon.  These must match byte
  for byte.
* ``seeds``: per program seed, a fingerprint of ``battery.jsonl`` and the
  rows of the convergence CSV.  Pass flags, trial ids, seeds
  and counts must match exactly; floats must agree to ``REL_TOL``.

``REL_TOL`` allows a last-ulp change in every float (a reordered sum or a
vectorised kernel) and fails a CSV value that moves by more than 1e-12 of
itself.  Battery floats are compared through sums of log|v| at ``LOG_TOL``,
so a relative change of more than about 1e-10 in any single record fails
whatever its magnitude, while one ulp in every record does not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict

REL_TOL = 1e-12
ABS_TOL = 1e-14       # deviations |A - mean| lose relative precision near 0
LOG_TOL = 1e-10

EXACT_ARTEFACTS = ("ledger.json", "sequence.txt", "blocks.json", "verify.json")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def battery_fingerprint(path) -> dict:
    """Per battery: record count, digest of the exact fields, float sums.

    Exact fields are every non-float value of a record (test, ctx, seed,
    trial, pass, ...) and the sign of every float.  Each float field gives
    the sum of log|v| over its nonzero values, the same sum with weights
    1.0, 1.1, ..., 1.9 by record position (so a permutation shows), and its
    maximum.
    """
    exact = defaultdict(hashlib.sha256)
    floats = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(int)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            test = rec["test"]
            counts[test] += 1
            fixed = {k: (v > 0) - (v < 0) if isinstance(v, float) else v
                     for k, v in rec.items()}
            exact[test].update(json.dumps(fixed, sort_keys=True).encode() + b"\n")
            for k, v in rec.items():
                if isinstance(v, float):
                    floats[test][k].append(v)
    out = {}
    for test in sorted(counts):
        out[test] = {"records": counts[test],
                     "exact_sha256": exact[test].hexdigest(),
                     "log_sums": {}, "max": {}}
        for k, vs in sorted(floats[test].items()):
            logs = [math.log(abs(v)) for v in vs if v]
            out[test]["log_sums"][k] = [
                math.fsum(logs),
                math.fsum((1 + (i % 10) / 10) * x for i, x in enumerate(logs))]
            out[test]["max"][k] = max(vs)
    return out


def csv_rows(path) -> list[list]:
    """Rows of a CSV, header first; numeric cells as int or float."""
    def cell(text):
        for conv in (int, float):
            try:
                return conv(text)
            except ValueError:
                pass
        return text

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[:1] + [[cell(x) for x in r] for r in rows[1:]]


def close(a, b, abs_tol: float = ABS_TOL) -> bool:
    """Equal ints and strings, floats within REL_TOL or abs_tol, same shape."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], abs_tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, abs_tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, (str, bool)) or isinstance(b, (str, bool)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)
    return type(a) is type(b) and a == b


def matches(name: str, got, want) -> bool:
    """Whether artefact ``name``'s fingerprint agrees with the reference."""
    if name in EXACT_ARTEFACTS:
        return got == want
    if name == "battery.jsonl":
        return close(got, want, LOG_TOL)
    return close(got, want)


def fingerprint(name: str, path):
    """What the gate compares for artefact ``name``."""
    if name in EXACT_ARTEFACTS:
        return sha256_file(path)
    if name == "battery.jsonl":
        return battery_fingerprint(path)
    return csv_rows(path)


def reference(refs: dict, horizon: int, seed: int, name: str):
    if name in EXACT_ARTEFACTS:
        return refs["exact"][f"h{horizon}"][name]
    return refs["seeds"][str(seed)][name]


def step_failed(refs: dict, horizon: int, seed: int, workdir, step) -> bool:
    """Whether any output of the step is missing or differs from its reference."""
    for name in step.outputs:
        try:
            got = fingerprint(name, workdir / name)
        except (OSError, ValueError, KeyError, IndexError):
            return True
        if not matches(name, got, reference(refs, horizon, seed, name)):
            return True
    return False
