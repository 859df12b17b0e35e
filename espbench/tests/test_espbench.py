"""Tests of the espbench benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s espbench/tests -v

Every run uses --tiny (shrunken workloads) and one-second budgets.  The
first test to run builds the harness under .bench_build/espbench.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "espbench", "run.py")
BUILD = os.path.join(ROOT, ".bench_build", "espbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# The gated workloads plus the harness's local-only Session workloads.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["session_fig8", "session_repair"]
ENGINE = [w for w in WORKLOADS if w.startswith("engine_")]
SESSION = [w for w in WORKLOADS if w.startswith("session_")]


def bench(workload, trace, *extra, cwd=ROOT, runner=RUN):
    """Runs one tiny benchmark; returns (exit code, result, quality, stdout)."""
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=900)
    lines = proc.stdout.strip().split("\n")
    result = quality = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# quality "):
            quality = json.loads(line[len("# quality "):])
    return proc.returncode, result, quality, proc.stdout + proc.stderr


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace, spec_key):
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, _, out = bench(w, trace)
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], out)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                self.assertIn("# context ", out)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        self.check_metrics(0, "end_to_end")

    def test_traced_run_emits_every_per_layer_metric(self):
        self.check_metrics(1, "per_layer")

    def test_traced_and_untraced_quality_agree(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, plain, _ = bench(w, 0)
                _, _, traced, _ = bench(w, 1)
                self.assertEqual(plain, traced)


class PlantedFaultTest(unittest.TestCase):
    PLANTS = {
        "shard_twin": ENGINE,
        "window_count": ENGINE,
        "clf_range": WORKLOADS,
        "ledger": SESSION,
        "rerun": SESSION,
        "nack_cap": ["session_repair"],
    }

    def test_each_check_fires(self):
        for plant, workloads in self.PLANTS.items():
            for w in workloads:
                with self.subTest(plant=plant, workload=w):
                    code, result, _, out = bench(w, 0, "--plant", plant)
                    self.assertNotEqual(code, 0, out)
                    self.assertFalse(result["correct"], out)
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertIn("check failed", out)


class IsolationTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _, _ = bench(WORKLOADS[0], 0, cwd=bare,
                                   runner=os.path.join(bare, "espbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


class LintTest(unittest.TestCase):
    def test_sources_are_lint_clean(self):
        bench(WORKLOADS[0], 0)  # configures the build tree
        subprocess.run(["cmake", "--build", BUILD, "--target", "espread_lint", "-j", "4"],
                       check=True, capture_output=True)
        proc = subprocess.run(
            [os.path.join(BUILD, "espread_lint", "espread_lint"), "--root=" + ROOT,
             "espbench"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


if __name__ == "__main__":
    unittest.main()
