#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

They run perfbench/run.py with short measuring times (building the probe
first if needed) and check that every metric of BENCHMARK.json is printed
by name with its unit, that the reference agrees with EXPERIMENTS.md's
Table 1, that a corrupted reference makes the command fail, and the
comparator's verdict rules.
"""
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "results", "selftest")
sys.path.insert(0, HERE)

import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "reference.json")) as f:
    REFERENCE = json.load(f)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args,
                           "--results", "selftest"],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PrintsEveryMetric(unittest.TestCase):
    def check_lines(self, stdout, kind, metrics):
        for m in metrics:
            pattern = r"^%s %s = \S+ %s\b" % (kind, re.escape(m["name"]),
                                               re.escape(m["unit"]))
            self.assertRegex(stdout, re.compile(pattern, re.M), m["name"])

    def check_result(self, proc, metrics):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_line(proc.stdout)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in metrics})
        return result

    def test_untraced_run_prints_end_to_end_metrics(self):
        proc = run_bench("--workload", "detect_mask_java", "--seed", "3",
                         "--seconds", "0.5", "--trace", "0")
        result = self.check_result(proc, SPEC["end_to_end"])
        self.check_lines(proc.stdout, "end_to_end", SPEC["end_to_end"])
        self.assertRegex(proc.stdout, r"(?m)^end_to_end failed_share = 0 ratio")
        self.assertRegex(proc.stdout, r"(?m)^meta effective_parallelism = ")
        for m in SPEC["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_run_prints_per_layer_metrics(self):
        proc = run_bench("--workload", "serve_storm", "--seed", "3",
                         "--seconds", "0.5", "--trace", "1")
        result = self.check_result(proc, SPEC["per_layer"])
        self.check_lines(proc.stdout, "per_layer", SPEC["per_layer"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(values["detect.runs"], 0)  # no injector runs
        self.assertEqual(values["recovery.recovery_rate"], 1)
        self.assertGreater(values["snapshot.capture_self_s"], 0)
        self.assertRegex(proc.stdout, r"(?m)^o_history (confirmed|refuted): ")


class Reference(unittest.TestCase):
    def test_reference_agrees_with_table1(self):
        path = os.path.join(ROOT, "EXPERIMENTS.md")
        if not os.path.exists(path):
            self.skipTest("EXPERIMENTS.md not present")
        rows = {}
        with open(path) as f:
            for line in f:
                m = re.match(r"\| (\w+) \| (C\+\+|Java) \| (\d+) \| (\d+) \| (\d+) \|",
                             line)
                if m:
                    rows[m.group(1)] = (int(m.group(4)), int(m.group(5)))
        apps = REFERENCE["apps"]
        self.assertEqual(sorted(rows), sorted(apps))
        for name, (methods, injections) in rows.items():
            got = apps[name]
            self.assertEqual(got["injections"], injections, name)
            self.assertEqual(got["runs"], injections, name)
            self.assertEqual(len(got["atomic"]) + len(got["conditional"]) +
                             len(got["pure"]), methods, name)

    def test_corrupted_reference_fails(self):
        os.makedirs(SCRATCH, exist_ok=True)
        corrupt = json.loads(json.dumps(REFERENCE))
        corrupt["apps"]["LinkedList"]["pure"].pop()
        path = os.path.join(SCRATCH, "corrupt_reference.json")
        with open(path, "w") as f:
            json.dump(corrupt, f)
        proc = run_bench("--workload", "detect_mask_java", "--seed", "3",
                         "--seconds", "0.3", "--trace", "0",
                         "--reference", path)
        self.assertEqual(proc.returncode, 1, proc.stderr[-2000:])
        result = result_line(proc.stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("check FAILED: LinkedList: pure", proc.stdout)

    def test_without_sources_fails_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("--workload", "serve_storm", "--seconds", "1",
                         cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class CompareVerdicts(unittest.TestCase):
    BASE = {s: 100.0 + s % 3 for s in range(10)}  # spread ~2%

    def test_unchanged(self):
        change = {s: v * 1.02 for s, v in self.BASE.items()}
        self.assertEqual(compare.verdict(self.BASE, change, 0.1, True)[0],
                         "unchanged")

    def test_regressed(self):
        change = {s: v * 1.2 for s, v in self.BASE.items()}
        self.assertEqual(compare.verdict(self.BASE, change, 0.1, True)[0],
                         "regressed")
        # Higher-is-better metrics regress downwards.
        self.assertEqual(compare.verdict(self.BASE, {s: v / 1.2 for s, v in
                                                     self.BASE.items()},
                                         0.1, False)[0], "regressed")

    def test_improved(self):
        change = {s: v * 0.8 for s, v in self.BASE.items()}
        self.assertEqual(compare.verdict(self.BASE, change, 0.1, True)[0],
                         "improved")

    def test_improved_needs_a_gap_beyond_the_base_spread(self):
        # Every change run beats every base run, but the medians differ by
        # less than the base's interquartile distance.
        base = {s: 100.0 + 2 * s for s in range(10)}
        change = {s: 99.9 for s in range(10)}
        self.assertEqual(compare.verdict(base, change, 0.25, True)[0],
                         "unchanged")

    def test_unresolved_when_base_spread_exceeds_bound(self):
        noisy = {s: 100.0 * (1 + (s % 4) * 0.1) for s in range(10)}
        change = {s: v * 1.12 for s, v in noisy.items()}
        self.assertEqual(compare.verdict(noisy, change, 0.1, True)[0],
                         "unresolved")

    def test_too_few_runs(self):
        self.assertEqual(compare.verdict({1: 1.0}, {1: 1.0}, 0.1, True)[0],
                         "unresolved")

    def test_spread_of_setup_s_counts_like_any_other(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "setup_s", "bound": 0.1}]}
        runs = {"w": {s: {"setup_s": 1.0 + (s % 4) * 0.1} for s in range(10)}}
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(compare.spread_report(spec, runs), 1)


if __name__ == "__main__":
    unittest.main()
