"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The last test runs a short pipelined-mix and is skipped until run.py
has built the binaries once.
"""

import itertools
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402


def first(plan, connection, n=200):
    return list(itertools.islice(plan.stream(connection), n))


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for make in (workloads.interactive_plan,
                     workloads.pipelined_mix_plan):
            a, b = make(7), make(7)
            self.assertEqual(a.pool, b.pool)
            for c in range(a.connections):
                self.assertEqual(first(a, c), first(b, c))
        self.assertEqual(workloads.batch_specs(7, 3),
                         workloads.batch_specs(7, 3))

    def test_other_seed_other_inputs(self):
        a, b = workloads.pipelined_mix_plan(7), workloads.pipelined_mix_plan(8)
        self.assertNotEqual(a.pool, b.pool)
        self.assertNotEqual(first(a, 0), first(b, 0))
        self.assertNotEqual(workloads.batch_specs(7, 1),
                            workloads.batch_specs(8, 1))

    def test_connections_get_distinct_streams(self):
        plan = workloads.pipelined_mix_plan(7)
        self.assertNotEqual(first(plan, 0), first(plan, 1))


class ShapeTest(unittest.TestCase):
    def test_pipelined_mix_outgrows_the_cache(self):
        plan = workloads.pipelined_mix_plan(3)
        used = {json.loads(plan.pool[i]).get("spec")
                for i in first(plan, 0, 5000)}
        used.discard(None)
        self.assertGreater(len(set(plan.specs)), 64)
        self.assertGreater(len(used), 64)

    def test_pipelined_mix_op_shares(self):
        plan = workloads.pipelined_mix_plan(3)
        ops = [json.loads(plan.pool[i])["op"] for i in first(plan, 0, 20000)]
        share = {op: ops.count(op) / len(ops) for op in set(ops)}
        self.assertAlmostEqual(share["evaluate"], 0.8, delta=0.02)
        self.assertAlmostEqual(share["dimension"], 0.1, delta=0.02)
        self.assertAlmostEqual(share["stats"], 0.1, delta=0.02)

    def test_interactive_warmup_covers_the_stream(self):
        plan = workloads.interactive_plan(3)
        self.assertEqual(len(set(plan.specs)), 4)
        self.assertTrue(set(first(plan, 0)) <= set(plan.warmup))

    def test_batch_sizes(self):
        specs = workloads.batch_specs(5, 2)
        for label, classes in workloads.BATCH_SIZES.items():
            for spec in specs[label]:
                self.assertEqual(len(workloads.spec_hops(spec)), classes)
                self.assertEqual(spec.count("\nnode ") + 1,
                                 workloads.BATCH_NODES)


class BenchmarkJsonTest(unittest.TestCase):
    def test_agrees_with_catalog(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         catalog.WORKLOADS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]], catalog.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            catalog.per_layer())


class CompareTest(unittest.TestCase):
    def result(self, cpu, value):
        report = {"workload": "interactive", "fingerprint": {
            "nproc": 4, "cpu_model": cpu, "compiler": "c++ 12",
            "build_type": "RelWithDebInfo", "commit": "x",
            "source_sha256": "y"}}
        return report, {"correct": True, "metrics": {
            "latency_p50_us": {"value": value, "unit": "us"}}}

    def test_refuses_other_machines(self):
        base = [self.result("cpu A", v) for v in (1.0, 2.0, 3.0)]
        head = [self.result("cpu B", v) for v in (1.0, 2.0, 3.0)]
        with self.assertRaises(compare.CompareError):
            compare.diff(base, head)

    def test_spread(self):
        runs = [self.result("cpu A", v) for v in (9.0, 10.0, 10.0, 11.0)]
        row = compare.spread(runs)[("interactive", "latency_p50_us")]
        self.assertEqual(row["median"], 10.0)


@unittest.skipUnless(
    os.path.exists(os.path.join(ROOT, ".bench_build", "cmake",
                                "perfbench_probe")),
    "binaries not built yet (run perfbench/run.py once)")
class MissShareTest(unittest.TestCase):
    def test_pipelined_mix_reports_its_miss_share(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "pipelined-mix", "--seed", "3", "--seconds", "2", "--trace",
             "0"], cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report_line, result_line = proc.stdout.splitlines()[-2:]
        report = json.loads(report_line)["report"]
        result = json.loads(result_line)
        self.assertTrue(result["correct"])
        self.assertGreater(report["cache_lookups"], 0)
        self.assertGreater(report["cache_miss_share"], 0.0)
        self.assertLess(report["cache_miss_share"], 0.5)


if __name__ == "__main__":
    unittest.main()
