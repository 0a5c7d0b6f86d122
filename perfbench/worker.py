"""One fresh benchmark process for one workload and seed.

Set-up (importing hypercalc and building the seeded inputs) is timed first,
then references are computed (untimed), then one cold pass over the op list
and whole steady-state passes until about ``--seconds`` have been measured,
at least ``--min-passes`` of them.  ``--stop-after setup`` ends the process
after set-up.  With ``--trace 1`` the steady passes alternate untraced and
traced.  The result is one JSON object on the last line of standard output.

Run through ``run.py``, which sets PYTHONPATH and the thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from time import perf_counter


def run_pass(ops):
    """Issue each op after the previous one returns; time only the calls."""
    latencies, failed = [], []
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            latencies.append(perf_counter() - t0)
            failed.append(f"{op.kind}/{op.label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(perf_counter() - t0)
        try:
            ok = op.passed(result)
        except (TypeError, ValueError) as exc:
            ok = False
            failed.append(f"{op.kind}/{op.label}: bad result: {exc}")
            continue
        if not ok:
            err = op.error(result)
            i = int((err - op.tol).argmax())
            failed.append(f"{op.kind}/{op.label}: entry {i} off its reference by "
                          f"{err[i]:.3g} > {op.tol[i]:.3g}")
    return {"latencies": latencies, "failed": failed}


def steady(run_one, seconds, min_passes):
    """Whole passes until the next one would overshoot ``seconds`` by more
    than stopping now falls short of it."""
    passes, elapsed = [], 0.0
    while True:
        t0 = perf_counter()
        passes.append(run_one())
        last = perf_counter() - t0
        elapsed += last
        if len(passes) >= min_passes and elapsed + last / 2 >= seconds:
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--stop-after", choices=("setup",))
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import hypercalc as hc
    import hypercalc.corpus  # noqa: F401  (submodules the ops use)
    import hypercalc.odeseries  # noqa: F401
    import hypercalc.radon  # noqa: F401
    import hypercalc.spectral  # noqa: F401
    import_s = perf_counter() - t0

    import numpy
    import scipy
    import workloads

    t1 = perf_counter()
    inputs = workloads.make_inputs(args.workload, hc, args.seed)
    setup_s = import_s + perf_counter() - t1

    out = {"setup_s": setup_s, "hypercalc": os.path.dirname(hc.__file__),
           "passes": []}
    if args.stop_after != "setup":
        ops = workloads.make_ops(args.workload, hc, inputs)
        out["ops_per_pass"] = len(ops)
        t2 = perf_counter()
        out["cold"] = run_pass(ops)
        out["cold_s"] = perf_counter() - t2
        if args.trace:
            out.update(traced_passes(hc, ops, args.seconds, args.min_passes))
        else:
            t3 = perf_counter()
            out["passes"] = steady(lambda: run_pass(ops), args.seconds,
                                   args.min_passes)
            out["steady_s"] = perf_counter() - t3
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        **{k: os.environ.get(k, "") for k in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HYPERCALC_THREADS")},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(out))


def traced_passes(hc, ops, seconds, min_pairs):
    """Alternate untraced and traced passes; the tracer is removed between
    traced passes so untraced ones run the package unmodified."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []

    def pair():
        untraced.append(run_pass(ops))
        tracer.reset()
        tracer.install(hc)
        try:
            p = run_pass(ops)
        finally:
            tracer.uninstall()
        p["trace"] = tracer.snapshot()
        traced.append(p)

    steady(pair, seconds, min_pairs)
    return {"passes": untraced, "traced": traced}


if __name__ == "__main__":
    sys.exit(main())
