#!/usr/bin/env python3
"""Fast self-test of the benchmark: the real harness on tiny fleet sizes.

    python3 perfbench/tests/smoke_test.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
an experiment killed by a signal is counted as failed without ending the run,
and that two runs of one seed print identical simulated results (model.*).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(workload, seed=7, trace=0, extra=()):
    p = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra],
                       capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def assert_metrics(self, result, wanted):
        for m in wanted:
            self.assertIn(m["name"], result["metrics"])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_printed_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines, result = bench(w["name"], trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines[-5:]))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assert_metrics(result, self.spec[key])
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in self.spec[key]})

    def test_killed_experiment_counts_as_failed(self):
        code, lines, result = bench("paper-matrix", extra=("--crash-first", "SEGV"))
        self.assertEqual(code, 0, "\n".join(lines[-5:]))
        self.assertTrue(any("killed by SIGSEGV" in line for line in lines), "\n".join(lines))
        # Every experiment of the killed pass counts as failed; the run went on.
        self.assertEqual(result["failed"], 17)
        self.assertGreaterEqual(result["attempted"], 3 * 17)
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assert_metrics(result, self.spec["end_to_end"])

    def test_one_seed_repeats_its_model_exactly(self):
        runs = [bench("churn-steady", seed=11, trace=1)[2] for _ in range(2)]
        model = [{k: v for k, v in r["metrics"].items() if k.startswith("model.")}
                 for r in runs]
        self.assertTrue(model[0])
        self.assertEqual(model[0], model[1])
        self.assertTrue(all(r["correct"] for r in runs))


if __name__ == "__main__":
    unittest.main()
