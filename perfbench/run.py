"""hypercalc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a hypercalc checkout; the package is imported from
./src.  Each workload runs in fresh worker processes with one BLAS/OpenMP
thread: two that each time set-up, a cold pass and half of the steady-state
passes, each followed by one that times set-up only.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of BENCHMARK.json.  The lines before it name every
metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402

SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")

MEASURING = 2   # fresh processes with set-up, a cold pass and steady passes
MIN_PASSES = 3  # steady passes in a run: enough slow ops for the tail percentile
TAIL_BEYOND = 10     # samples the reported tail percentile must leave above it
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
DEADLINE_S = 170  # a run ends within this, whatever its workers do

THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1", "HYPERCALC_THREADS": "1"}


class BenchError(Exception):
    pass


def worker_env(src):
    env = dict(os.environ, **THREAD_SETTINGS)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def spawn(args, env, deadline):
    """Run one worker process to completion; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {DEADLINE_S} s: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail_percentile(latencies):
    """(value, p) for the highest p in TAIL_LADDER whose nearest-rank
    percentile leaves at least TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    for p in reversed(TAIL_LADDER):
        rank = math.ceil(p / 100.0 * len(xs))
        if len(xs) - rank >= TAIL_BEYOND:
            return xs[rank - 1], p
    raise BenchError(f"{len(xs)} samples: too few for a tail percentile")


def throughput(passes):
    """Ops per second of program time over all of ``passes``."""
    return (sum(len(p["latencies"]) for p in passes)
            / sum(sum(p["latencies"]) for p in passes))


def count_failures(results):
    passes = [p for r in results if "cold" in r
              for p in (r["cold"], *r["passes"], *r.get("traced", ()))]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [msg for p in passes for msg in p["failed"]]
    return attempted, failures


def end_to_end(results):
    """Metrics of one run's fresh processes ``results``: set-up over all of
    them, the rest over the measuring ones, steady passes pooled."""
    measuring = [r for r in results if "cold_s" in r]
    setup_samples = [r["setup_s"] for r in results]
    cold_samples = [r["cold_s"] for r in measuring]
    passes = [p for r in measuring for p in r["passes"]]
    lat = [x for p in passes for x in p["latencies"]]
    tail, pct = tail_percentile(lat)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "cold_s": statistics.median(cold_samples),
        "ops_per_s": throughput(passes),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": max(r["rss_mb"] for r in measuring),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes",
        "cold_s": f"first pass, median of {len(cold_samples)} fresh processes",
        "ops_per_s": f"{len(passes)} steady passes of {measuring[0]['ops_per_pass']} "
                     f"ops in {len(measuring)} processes, closed loop, one caller",
        "op_p50_ms": f"n={len(lat)}",
        "op_tail_ms": f"p{pct:g}, n={len(lat)}, "
                      f"{len(lat) - math.ceil(pct / 100.0 * len(lat))} samples beyond",
        "peak_rss_mb": f"largest ru_maxrss of {len(measuring)} workload processes",
    }
    return metrics, notes


def per_layer(result):
    """Every traced metric: counts of the first traced pass (checked equal
    across traced passes), median self times, and the tracing overhead on
    ops_per_s.  Returns (metrics, problems)."""
    traces = [p["trace"] for p in result["traced"]]
    problems = []
    for i, tr in enumerate(traces[1:], start=2):
        for key in sorted(set(tr) | set(traces[0])):
            if not key.endswith("self_s") and tr.get(key, 0) != traces[0].get(key, 0):
                problems.append(f"count {key} differs in traced pass {i}")
    untraced_failed = [len(p["failed"]) for p in result["passes"]]
    traced_failed = [len(p["failed"]) for p in result["traced"]]
    if set(untraced_failed) != set(traced_failed) or len(set(traced_failed)) > 1:
        problems.append(f"failed ops per pass: untraced {untraced_failed}, "
                        f"traced {traced_failed}")
    metrics = {}
    for key in traces[0]:
        if key.endswith("self_s"):
            metrics[key] = statistics.median(tr.get(key, 0.0) for tr in traces)
        else:
            metrics[key] = traces[0][key]
    plain, with_trace = throughput(result["passes"]), throughput(result["traced"])
    metrics["trace.ops_per_s_untraced"] = plain
    metrics["trace.ops_per_s_traced"] = with_trace
    metrics["trace.overhead_ops_per_s"] = plain - with_trace
    return metrics, problems


def unit_of(name):
    if name.startswith("trace.ops_per_s") or name == "trace.overhead_ops_per_s":
        return "op/s"
    return "s" if name.endswith("self_s") else "count"


def main(argv=None):
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hypercalc", "__init__.py")):
        print(f"perfbench: no hypercalc sources in {src}; run from the root of "
              "a hypercalc checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(src)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        def worker(*extra):
            return spawn([*common, *extra], env, deadline)

        if args.trace:
            results = [worker("--seconds", str(args.seconds), "--min-passes", "2",
                              "--trace", "1")]
            specs = spec["per_layer"]
            metrics, problems = per_layer(results[0])
            notes = {}
        else:
            # The steady passes are split between measuring processes that
            # lie apart in time, so that a run samples more than one state
            # of a shared host; a set-up-only process follows each.
            results, steady_s, passes = [], 0.0, 0
            for left in range(MEASURING, 0, -1):
                share = max(0.0, args.seconds - steady_s) / left
                at_least = max(1, math.ceil((MIN_PASSES - passes) / left))
                r = worker("--seconds", f"{share:.3f}", "--min-passes", str(at_least),
                           "--trace", "0")
                steady_s += r["steady_s"]
                passes += len(r["passes"])
                results += [r, worker("--stop-after", "setup")]
            specs = spec["end_to_end"]
            metrics, notes = end_to_end(results)
            problems = []
        attempted, failures = count_failures(results)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env_info = results[0]["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    units = {m["name"]: m["unit"] for m in specs}
    shown = sorted(metrics) if args.trace else list(units)
    for name in shown:
        unit = units.get(name, unit_of(name))
        print(f"  {name:36s} {metrics[name]:>14.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':36s} {len(failures) / attempted:>14.6g} fraction "
          f"{len(failures)} of {attempted} ops failed")
    if args.trace:
        layer_s = {layer: metrics[f"layer.{layer}.self_s"] for layer in LAYERS}
        print(f"  largest self time: {max(layer_s, key=layer_s.get)}")
    for msg in sorted(set(failures)) + problems:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
