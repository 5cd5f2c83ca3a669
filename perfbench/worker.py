"""One measured run of one workload, in a process of its own.

Usage: worker.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

Builds the workload's items, runs passes over them one item at a time (a
closed loop with one client) until SECONDS have passed and enough item
latencies are pooled, checks every output, and prints one JSON object.
``run.py`` starts it; it is not meant to be called by hand.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import sfnfa  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100


@dataclass(frozen=True)
class Raised:
    error: str


@dataclass
class Pass:
    wall_s: float
    latencies: array
    outputs: list  # kept for the first pass only
    differs: set  # indices whose output differs from the first pass's


def run_pass(items, tracer=None, first: Pass | None = None) -> Pass:
    """One pass over the items.  Later passes compare each output with the
    first pass's as they go and keep none, so memory does not grow with
    the number of passes."""
    gc.collect()
    latencies, outputs, differs = array("d"), [], set()
    clock = time.perf_counter
    t0 = clock()
    for index, item in enumerate(items):
        s = clock()
        try:
            if tracer is None:
                out = item.run()
            else:
                with tracer.item_span(index):
                    out = item.run()
        except Exception as exc:  # noqa: BLE001 - an item that raises is a failure
            out = Raised(f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - s)
        if first is None:
            outputs.append(out)
        elif out != first.outputs[index]:
            differs.add(index)
    return Pass(clock() - t0, latencies, outputs, differs)


def check_passes(items, passes: list[Pass]) -> tuple[int, list[str]]:
    """Failed item runs over all passes, with their messages.  Each output
    of the first pass is checked against the reference; a later pass must
    reproduce the first pass's outputs exactly.  An item whose first output
    is wrong fails in every pass."""
    failed, messages = 0, []
    for index, (item, out) in enumerate(zip(items, passes[0].outputs)):
        msg = out.error if isinstance(out, Raised) else workloads.check_output(item, out)
        if msg is not None:
            failed += len(passes)
        else:
            bad = [n for n, p in enumerate(passes) if index in p.differs]
            failed += len(bad)
            if bad:
                msg = f"output of pass {bad[0]} differs from pass 0"
        if msg is not None:
            messages.append(f"{item.id}: {msg}")
    return failed, messages


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def untraced_run(items, seconds) -> dict:
    passes = []
    t0 = time.perf_counter()
    while (time.perf_counter() - t0 < seconds
           or sum(len(p.latencies) for p in passes) < MIN_SAMPLES):
        passes.append(run_pass(items, first=passes[0] if passes else None))
    # Peak RSS of the passes themselves, before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures = check_passes(items, passes)
    pooled = [x for p in passes for x in p.latencies]
    return {
        "passes": len(passes),
        "samples": len(pooled),
        "samples_beyond_p90": len(pooled) - math.ceil(0.9 * len(pooled)),
        "attempted": len(pooled),
        "failed": failed,
        "failures": failures,
        "metrics": {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "item_p50_ms": statistics.median(pooled) * 1e3,
            "item_p90_ms": p90(pooled) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def layer_metrics(stats: dict, wall_s: float) -> dict:
    """The per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    def frac(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in tracing.NAMES[1:]:
        out[f"{layer}.calls"] = stats[layer]["calls"]
        out[f"{layer}.busy_s"] = stats[layer]["busy_ns"] / 1e9
    for layer in ("suffixfree.is_suffix_free", "bounds.search_fooling_set",
                  "bounds.nsc_exhaustive"):
        out[f"{layer}.self_s"] = stats[layer]["self_ns"] / 1e9
    out["automata.enumerate_words.words"] = stats["automata.enumerate_words"]["count"]
    out["bounds.verify_fooling_set.pairs"] = stats["bounds.verify_fooling_set"]["count"]
    st = stats["suffixfree.is_suffix_free"]
    out["suffixfree.is_suffix_free.witness_frac"] = frac(st["count"], st["calls"])
    st = stats["bounds.search_fooling_set"]
    out["bounds.search_fooling_set.hit_frac"] = frac(st["count"], st["calls"])
    st = stats["bounds.nsc_exhaustive"]
    # Each call minimizes its input once; every further minimization is
    # one candidate's equivalence check.
    checks = max(st["children"].get("automata.canonical_dfa", 0) - st["calls"], 0)
    out["bounds.nsc_exhaustive.equiv_checks"] = checks
    out["bounds.nsc_exhaustive.equiv_hit_frac"] = frac(st["count"], checks)
    st = stats["kernel.filter_tables"]
    out["kernel.filter_tables.tables"] = st["count"]
    out["kernel.filter_tables.survivors"] = st["count2"]
    out["kernel.filter_tables.survivor_frac"] = frac(st["count2"], st["count"])
    out["kernel.filter_tables.tables_per_s"] = frac(st["count"], st["busy_ns"] / 1e9)
    out["serialize.bytes"] = stats["serialize"]["count"]
    attributed = sum(s["self_ns"] for name, s in stats.items() if name != tracing.ITEM)
    out["trace.unattributed_s"] = wall_s - attributed / 1e9
    return out


COUNT_KEYS = ("calls", "words", "pairs", "tables", "survivors", "equiv_checks")


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[1] in COUNT_KEYS}


def traced_run(items, seconds, spans_path) -> dict:
    """Untraced and traced passes in turn, at least two traced ones."""
    tracer = tracing.Tracer()
    plain, traced, per_pass = [], [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < seconds:
        plain.append(run_pass(items, first=plain[0] if plain else None))
        tracer.reset()
        with tracer.installed():
            p = run_pass(items, tracer, first=plain[0])
        traced.append(p)
        per_pass.append(layer_metrics(tracer.summary(), p.wall_s))
    tracer.write(spans_path)
    failed, failures = check_passes(items, plain + traced)
    if any(counts_of(m) != counts_of(per_pass[0]) for m in per_pass[1:]):
        failed += 1
        failures.append("layer counts differ between traced passes")
    metrics = {k: (statistics.median(m[k] for m in per_pass) if isinstance(v, float) else v)
               for k, v in per_pass[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in plain))
    return {
        "passes": len(plain) + len(traced),
        "samples": sum(len(p.latencies) for p in plain + traced),
        "attempted": sum(len(p.latencies) for p in plain + traced),
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
    }


def main(argv) -> int:
    workload, seed, seconds, trace, spans_path = argv
    if not sfnfa.__file__.startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"sfnfa imported from {sfnfa.__file__}, not this checkout", file=sys.stderr)
        return 2
    items = workloads.build_items(workload, int(seed))
    if trace == "1":
        result = traced_run(items, float(seconds), spans_path)
    else:
        result = untraced_run(items, float(seconds))
    result["items"] = len(items)
    result["stamp"] = {"kernel_impl": sfnfa.kernel_impl,
                       "python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
