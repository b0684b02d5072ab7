"""Self-tests of the translation benchmark, on its seconds-long smoke cut.

Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + list(args),
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def smoke(seed, trace, *extra):
    proc = bench("--workload", "smoke", "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), *extra)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode, proc.stderr))
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def assert_printed(self, stdout, table):
        for name, unit in table:
            self.assertRegex(stdout, r"(?m)^%s +\S+ +%s +\(n = \d+ [^)]*\)$"
                             % (re.escape(name), re.escape(unit)))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        stdout, result = smoke(3, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 4)
        table = [(n, u) for n, u, _, _ in run.END_TO_END]
        self.assertEqual(set(result["metrics"]), {n for n, _ in table})
        for name, unit in table:
            self.assertEqual(result["metrics"][name]["unit"], unit)
        self.assert_printed(stdout, table)
        for v in run.ENV_VARS:
            self.assertIn("env %s=" % v, stdout)

    def test_traced_run_prints_every_per_layer_metric(self):
        stdout, result = smoke(3, 1)
        self.assertTrue(result["correct"])
        table = [(n, u) for n, u, _ in run.PER_LAYER]
        self.assertEqual(set(result["metrics"]), {n for n, _ in table})
        self.assert_printed(stdout, table)
        self.assertGreater(result["metrics"]["mcts.simulations"]["value"], 0)

    def test_corrupted_output_is_rejected(self):
        stdout, result = smoke(3, 0, "--corrupt")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        corrupted = re.search(r"corrupted output on purpose: (\S+)", stdout).group(1)
        self.assertRegex(stdout, r"FAILED CELL %s wrong output" % re.escape(corrupted))
        self.assertLess(result["metrics"]["accepted_share"]["value"], 1.0)

    def test_one_seed_gives_identical_outcome_metrics(self):
        _, a = smoke(7, 0)
        _, b = smoke(7, 0)
        for name in run.OUTCOME_METRICS:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)

    def test_benchmark_json_matches_the_harness(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        spec = json.load(open(path))
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(run.ROOT, run.BUILD_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("--workload", "untuned-matrix", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
