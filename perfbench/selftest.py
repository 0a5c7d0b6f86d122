"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a hypercalc checkout (the package is imported from
./src).  Uses short op subsets, so it finishes in well under a minute.
"""

from __future__ import annotations

import collections
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import hypercalc as hc  # noqa: E402
import hypercalc.corpus  # noqa: E402,F401
import hypercalc.odeseries  # noqa: E402,F401
import hypercalc.radon  # noqa: E402,F401
import hypercalc.spectral  # noqa: E402,F401

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

# cheap op kinds of each workload, enough to reach every layer
CHEAP = {
    "transforms": {"table", "duality", "hat", "direct", "helgason", "gauss_slice"},
    "symbolic_pairing": {"pair_with_error", "remainder", "ode", "realize"},
}


def cheap_ops(workload, seed):
    inputs = workloads.make_inputs(workload, hc, seed)
    ops = workloads.make_ops(workload, hc, inputs)
    ops = [op for op in ops if op.kind in CHEAP[workload]]
    if workload == "symbolic_pairing":
        ops += [op for op in workloads.make_ops(workload, hc, inputs)
                if op.kind == "delta" and op.label.endswith(("n2", "n3"))]
    return ops


def traced_counts(ops):
    tracer = Tracer()
    tracer.install(hc)
    try:
        result = run_pass(ops)
    finally:
        tracer.uninstall()
    counts = {k: v for k, v in tracer.snapshot().items() if not k.endswith("self_s")}
    return counts, result


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.draw(w, 11), workloads.draw(w, 11))
            self.assertNotEqual(workloads.draw(w, 11), workloads.draw(w, 12))

    def test_any_seed_draws_in_range(self):
        for seed in (0, 1, -7, 2 ** 80):
            t = workloads.draw("transforms", seed)
            xis = [x for batches in t["xi_batches"].values() for b in batches for x in b]
            xis += t["xi_points"]["sech"] + t["xi_points"]["gaussian"]
            self.assertTrue(all(-8 <= x <= 8 for x in xis))
            for om in t["directions"]:
                self.assertAlmostEqual(om[0] ** 2 + om[1] ** 2, 1.0, places=12)
            s = workloads.draw("symbolic_pairing", seed)
            self.assertTrue(all(abs(a) <= 0.5 for pair in s["shifts"] for a in pair))
            self.assertTrue(all(0.25 <= h <= 0.45 for h in s["heights"]))
            self.assertTrue(all(-1 <= m <= 1 for v in s["moment_vectors"] for m in v))
            self.assertEqual(len(s["shifts"]), 8)

    def test_op_counts_do_not_depend_on_seed(self):
        for w in workloads.WORKLOADS:
            kinds = [collections.Counter(op.kind for op in workloads.make_ops(
                w, hc, workloads.make_inputs(w, hc, seed))) for seed in (3, 4)]
            self.assertEqual(kinds[0], kinds[1])

    def test_pass_order_spreads_each_kind(self):
        ops = workloads.make_ops("transforms", hc, workloads.make_inputs("transforms", hc, 3))
        positions = [i for i, op in enumerate(ops) if op.kind == "roundtrip"]
        self.assertEqual([4 * i // len(ops) for i in positions], [0, 1, 2, 3])
        tables = [op.label for op in ops if op.kind == "table"]
        self.assertNotEqual(tables[0], tables[1])  # inputs take turns


class Tracing(unittest.TestCase):
    def test_every_binding_is_patched_and_restored(self):
        originals = (hc.quad.adaptive_interval, hc.quad.auto_radius,
                     hc.quad.integrate_box, hc.hyper.pair)
        tracer = Tracer()
        tracer.install(hc)
        try:
            self.assertIs(hc.hyper.adaptive_interval, hc.quad.adaptive_interval)
            self.assertIs(hc.spectral.adaptive_interval, hc.quad.adaptive_interval)
            self.assertIs(hc.hyper.auto_radius, hc.quad.auto_radius)
            self.assertIs(hc.spectral.quad_auto_radius, hc.quad.auto_radius)
            self.assertIs(hc.radon.integrate_box, hc.quad.integrate_box)
            self.assertIs(hc.odeseries.pair, hc.hyper.pair)
            self.assertIsNot(hc.hyper.pair, originals[3])
        finally:
            tracer.uninstall()
        self.assertEqual((hc.quad.adaptive_interval, hc.quad.auto_radius,
                          hc.quad.integrate_box, hc.hyper.pair), originals)
        self.assertIs(hc.hyper.adaptive_interval, originals[0])

    def test_same_seed_same_traced_counts(self):
        for w in workloads.WORKLOADS:
            first, r1 = traced_counts(cheap_ops(w, 5))
            second, r2 = traced_counts(cheap_ops(w, 5))
            self.assertEqual(first, second, w)
            self.assertEqual(r1["failed"], [], w)
            self.assertEqual(r2["failed"], [], w)
            self.assertGreater(first.get("expr.evaluate.calls", 0), 0, w)

    def test_closures_on_returned_objects_are_traced(self):
        ops = [op for op in cheap_ops("transforms", 5) if op.kind == "table"]
        counts, _ = traced_counts(ops)
        self.assertEqual(counts["spectral.ft_table.calls"], 28)  # sech, gaussian
        self.assertEqual(counts["spectral.ft_table.xis"], 28 * 64)
        self.assertEqual(counts["spectral.ft_hat.calls"], 3)  # the delta family


class Failures(unittest.TestCase):
    def test_perturbed_reference_gives_errors(self):
        ops = cheap_ops("transforms", 5)
        self.assertEqual(run_pass(ops)["failed"], [])
        ops[0].ref = ops[0].ref + 1e-3
        failed = run_pass(ops)["failed"]
        self.assertEqual(len(failed), 1)
        self.assertIn("off its reference", failed[0])

    def test_raising_op_counts_as_failed_and_pass_continues(self):
        ops = cheap_ops("transforms", 5)[:3]

        def boom():
            raise ArithmeticError("deliberate")

        ops[1].run = boom
        result = run_pass(ops)
        self.assertEqual(len(result["latencies"]), 3)
        self.assertEqual(len(result["failed"]), 1)
        self.assertIn("deliberate", result["failed"][0])


class Statistics(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        value, pct = run.tail_percentile(list(range(100)))
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for x in range(100) if x > value), 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_tail_ladder_follows_sample_count(self):
        self.assertEqual(run.tail_percentile(list(range(250)))[1], 95)
        self.assertEqual(run.tail_percentile(list(range(40)))[1], 75)
        with self.assertRaises(run.BenchError):
            run.tail_percentile([1.0] * 10)


if __name__ == "__main__":
    unittest.main()
