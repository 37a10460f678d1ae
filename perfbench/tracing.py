"""Spans and counters recorded around calls into each primegrid module.

The traced worker replaces module attributes at the boundaries between
modules (for example ``primegrid.cli.build_store`` or
``primegrid.ledger.block_count``) with wrappers that open a span.  Spans are
kept in memory and written once, when the run ends.  Nothing here changes
what the wrapped functions compute.

``summarize`` turns the spans into the per-layer metrics in ``PER_LAYER``.
A span's layer is the module of the function it wraps (``ledger.block_count``
counts calls made by the ledger but runs in ``blocksets``), or the first
dotted part of its name for the stage spans.  A layer's self time is the
time of its spans minus the part covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "ledger", "blocksets", "sequence", "dynsim", "zbattery", "zops")
BATTERIES = ("window_weak", "window_strong", "progression_weak", "deviation_l2")
KERNELS = ("level_count_window_sup", "strong_l2_window_sup",
           "level_count_progression_sup", "deviation_sup_l2_bound")
STAGES = ("cli.gen-params", "cli.build-seq", "cli.verify", "cli.ops-test",
          "cli.simulate.rotation")

# Counters that must repeat exactly from run to run on the same workload.
EXACT_COUNTERS = ("ledger.endpoint_candidates", "blocksets.pair_tests",
                  "sequence.build_store_calls", "sequence.windows_checked",
                  "dynsim.positions_evaluated", "zbattery.trials",
                  "zbattery.failures")

# (metric, unit, better): every metric a traced run reports, on every workload.
PER_LAYER = (
    [(f"{s}_s", "s", "lower") for s in STAGES]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("ledger.build_s", "s", "lower"),
        ("ledger.report_s", "s", "lower"),
        ("ledger.endpoint_candidates", "count", "lower"),
        ("ledger.block_count_s", "s", "lower"),
        ("blocksets.survivor_s", "s", "lower"),
        ("blocksets.pair_tests", "count", "lower"),
        ("sequence.build_store_s", "s", "lower"),
        ("sequence.build_store_calls", "count", "lower"),
        ("sequence.verify_block_s", "s", "lower"),
        ("sequence.windows_checked", "count", "higher"),
        ("sequence.banach_density_s", "s", "lower"),
        ("sequence.write_elements_s", "s", "lower"),
        ("dynsim.sample_orbit.rotation_s", "s", "lower"),
        ("dynsim.positions_evaluated", "count", "lower"),
        ("dynsim.useful_sample_ratio", "ratio", "higher"),
        ("dynsim.convergence_report_s", "s", "lower"),
        ("dynsim.count_bounds_s", "s", "lower"),
    ]
    + [(f"zbattery.{b}_s", "s", "lower") for b in BATTERIES]
    + [("zbattery.trials", "count", "higher"),
       ("zbattery.failures", "count", "lower")]
    + [(f"zbattery.{b}.max_ratio", "ratio", "higher") for b in BATTERIES]
    + [(f"zops.{k}.{q}_ms", "ms", "lower") for k in KERNELS for q in ("p50", "p99")]
    + [
        ("zops.calls", "count", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.traced_run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.reference_s", "s", "lower"),
        ("trace.stage_coverage", "ratio", "higher"),
    ]
)


class Tracer:
    """In-memory spans (id, name, start, end, parent, layer) and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.latencies_ms: dict[str, list[float]] = defaultdict(list)
        self.battery_summary: dict = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str | None = None):
        rec = [len(self.spans), name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None,
               layer or name.split(".")[0]]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter()

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replace ``module.attr`` by a wrapper that opens a span per call.

        ``name`` is a span name or a function of the call's arguments.
        ``after(args, kwargs, result, span)`` updates counters once the call
        has returned; its cost falls outside the span.
        """
        original = getattr(module, attr)
        layer = original.__module__.rsplit(".", 1)[-1]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label, layer) as rec:
                result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result, rec)
            return result

        setattr(module, attr, traced)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, layer in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "layer": layer}) + "\n")


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _multiples(q: int, lo: int, hi: int) -> int:
    """Number of multiples of q in [lo, hi)."""
    return max(0, (hi - 1) // q - (lo - 1) // q)


def install(tracer: Tracer) -> None:
    """Wrap the module boundaries the per-layer metrics are measured at."""
    from primegrid import blocksets, cli, ledger, sequence, zbattery

    c = tracer.counters

    def count(key):
        def after(args, kwargs, result, rec):
            c[key] += 1
        return after

    def pair_tests(args, kwargs, result, rec):
        # computed from the arguments: each point is tested against the K-1
        # other progressions
        primes = list(_arg(args, kwargs, 0, "primes"))
        lo, hi = _arg(args, kwargs, 2, "lo"), _arg(args, kwargs, 3, "hi")
        c["blocksets.pair_tests"] += (len(primes) - 1) * sum(
            _multiples(q, lo, hi) for q in primes)

    def windows(args, kwargs, result, rec):
        c["sequence.windows_checked"] += result.n_windows

    def dense(args, kwargs, result, rec):
        c["dynsim.positions_evaluated"] += _arg(args, kwargs, 2, "n_max")

    def averaged(args, kwargs, result, rec):
        store = _arg(args, kwargs, 1, "store")
        c["dynsim.elements_averaged"] += store.count_range(0, result.rows[-1].N)

    def batteries(args, kwargs, result, rec):
        tracer.battery_summary = result["summary"]

    def latency(args, kwargs, result, rec):
        tracer.latencies_ms[rec[1]].append((rec[3] - rec[2]) * 1e3)

    w = tracer.wrap
    w(cli, "extend_ledger", "ledger.build")
    w(cli, "full_report", "ledger.report")
    w(ledger, "block_count", "ledger.block_count",
      count("ledger.endpoint_candidates"))
    # blocksets' own global serves block_count; sequence imported its own name
    w(blocksets, "survivors_by_progression", "blocksets.survivor", pair_tests)
    w(sequence, "survivors_by_progression", "blocksets.survivor", pair_tests)
    w(cli, "build_store", "sequence.build_store",
      count("sequence.build_store_calls"))
    w(cli, "verify_block", "sequence.verify_block", windows)
    w(cli, "banach_density", "sequence.banach_density")
    w(cli, "write_elements", "sequence.write_elements")
    w(cli, "sample_orbit",
      lambda system, *a, **k: "dynsim.sample_orbit."
      + type(system).__name__.removesuffix("System").lower(), dense)
    w(cli, "convergence_report", "dynsim.convergence_report", averaged)
    w(cli, "count_bounds_check", "dynsim.count_bounds")
    w(cli, "run_all", "zbattery.run_all", batteries)
    for b in BATTERIES:
        w(zbattery, f"battery_{b}", f"zbattery.{b}")
    for k in KERNELS:
        w(zbattery, k, f"zops.{k}", latency)


def _p(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile: at 1000 samples p99 leaves 10 beyond it."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (metrics of unused layers absent)."""
    out: dict[str, float] = defaultdict(float)
    child_time: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent, layer in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    for sid, name, start, end, parent, layer in tracer.spans:
        out[f"{name}_s"] += end - start
        out[f"{layer}.self_s"] += end - start - child_time[sid]
        if name in STAGES:
            out["trace.stage_s"] += end - start
    c = tracer.counters
    for key in ("ledger.endpoint_candidates", "blocksets.pair_tests",
                "sequence.build_store_calls", "sequence.windows_checked",
                "dynsim.positions_evaluated"):
        out[key] = c[key]
    if c["dynsim.positions_evaluated"]:
        out["dynsim.useful_sample_ratio"] = (
            c["dynsim.elements_averaged"] / c["dynsim.positions_evaluated"])
    summary = tracer.battery_summary
    out["zbattery.trials"] = sum(v["trials"] for v in summary.values())
    out["zbattery.failures"] = sum(v["failures"] for v in summary.values())
    for b, v in summary.items():
        if v["max_ratio"] is not None:
            out[f"zbattery.{b}.max_ratio"] = v["max_ratio"]
    out["zops.calls"] = sum(len(v) for v in tracer.latencies_ms.values())
    return dict(out)


def latency_percentiles(runs: list[dict[str, list[float]]]) -> dict[str, float]:
    """p50 and p99 per kernel over the calls of all the given traced runs."""
    pooled: dict[str, list[float]] = defaultdict(list)
    for latencies in runs:
        for span_name, vals in latencies.items():
            pooled[span_name].extend(vals)
    out = {}
    for span_name, vals in pooled.items():
        vals = sorted(vals)
        out[f"{span_name}.p50_ms"] = _p(vals, 0.50)
        out[f"{span_name}.p99_ms"] = _p(vals, 0.99)
    return out
