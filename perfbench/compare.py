"""Compare two sets of benchmark results, base and head.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the ``result-*.json`` files that ``run.py`` writes to
``perfbench/out/``, from runs of one commit over several seeds.  For every
workload and end-to-end metric it prints both medians and quartile spreads
and judges the head against the bound in BENCHMARK.json: ``worse`` when the
head's median is worse by more than the bound, ``unresolved`` when either
side spreads wider than the bound, else ``ok``.  It refuses (exit 2) to
compare results whose stamps name different kernel implementations, and
exits 1 when any metric is worse.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "result-*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            runs.append(json.load(fh))
    if not runs:
        raise SystemExit(f"no untraced results in {directory}")
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and the interquartile distance as a share of it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    impls = {r["stamp"]["kernel_impl"] for r in base + head}
    if len(impls) != 1:
        print(f"refusing to compare: kernel_impl differs ({sorted(impls)})", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    worse = False
    print(f"kernel_impl={impls.pop()}")
    for workload in sorted({r["stamp"]["workload"] for r in base + head}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = []
            for runs in (base, head):
                values = [r["metrics"][name]["value"] for r in runs
                          if r["stamp"]["workload"] == workload]
                sides.append(spread(values) if values else None)
            if None in sides:
                print(f"{workload:14} {name:12} missing on one side")
                continue
            (b_med, b_spread), (h_med, h_spread) = sides
            change = (h_med - b_med) / b_med
            if metric["better"] == "higher":
                change = -change
            if change > bound:
                verdict, worse = "worse", True
            elif max(b_spread, h_spread) > bound and name != "setup_s":
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:14} {name:12} base {b_med:.6g} (spread {b_spread:.3f})  "
                  f"head {h_med:.6g} (spread {h_spread:.3f})  "
                  f"worse by {change:+.3f} of base, bound {bound}: {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
