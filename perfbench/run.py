"""The sfnfa benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload certify-table --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports sfnfa from that checkout's
``src``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run.  Summary lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The stamped result is also written to
``perfbench/out/`` for ``compare.py``.  See README.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("certify-table", "nsc-search", "suffix-check")
SETUP_REPEATS = 7
# A run ends within this many seconds, measuring included.
RUN_LIMIT_S = 170


def child_env() -> dict:
    """The environment of every child: this checkout's sfnfa first, and
    assertions on (no PYTHONOPTIMIZE), as users run it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(env, deadline) -> float:
    """Median wall time of a fresh interpreter importing sfnfa and
    sfnfa.cli, after one import that leaves the bytecode cache warm.  The
    wait has no timeout, because Popen.wait(timeout) polls with sleeps of up
    to 50 ms and so rounds the time up; a timer kills a hung child instead."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import sfnfa, sfnfa.cli"],
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree (git
    is not asked, so it never searches the directories above it)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    if not __debug__:
        print("error: run without -O; the certificate asserts are part of the workload",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "sfnfa", "__init__.py")):
        print(f"error: no sfnfa sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s = None if args.trace else setup_seconds(env, deadline)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), os.path.join(OUT, f"spans-{args.workload}.csv")],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 2
    run = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = dict(run["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 2
    stamp = dict(run["stamp"], git_sha=git_sha(), nproc=os.cpu_count(), seed=args.seed,
                 workload=args.workload, seconds=args.seconds, trace=args.trace)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, stamp=stamp, items=run["items"], passes=run["passes"],
                       samples=run["samples"], failures=run["failures"]), fh, indent=1)
    print("stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"items={run['items']} passes={run['passes']} samples={run['samples']}"
          + (f" samples_beyond_p90={run['samples_beyond_p90']}"
             if "samples_beyond_p90" in run else "")
          + f" fail_frac={run['failed'] / run['attempted']:.6f}")
    for msg in run["failures"][:20]:
        print(f"FAIL {msg}")
    for k, v in metrics.items():
        print(f"{k:<48} {v:>16.6f} {units[k]}" if isinstance(v, float)
              else f"{k:<48} {v:>16} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
