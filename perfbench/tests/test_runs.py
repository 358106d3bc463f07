"""End-to-end tests of the benchmark driver on shrunken (--small) cells.

Builds fst_perfbench through run.py (the first call may take a minute or
two) and checks that exact counts and simulated-time values repeat
bit-for-bit across runs and across 1 vs 2 sweep threads, that the seed
passed on the command line reaches the generated inputs, and that the
benchmark refuses to run without the simulator sources.

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

SECONDS = 0.3


class DriverRunsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def raw(self, workload, seed, threads=2, trace=False):
        raw = run.run_binary(self.binary, workload, seed, SECONDS, trace,
                             threads, small=True)
        self.assertEqual(raw["failed"], 0, raw["failures"])
        self.assertGreater(raw["attempted"], 0)
        return raw

    def test_exact_values_repeat_across_runs_and_thread_counts(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.raw(workload, 11, threads=2)
                b = self.raw(workload, 11, threads=2)
                c = self.raw(workload, 11, threads=1)
                self.assertEqual(a["det"], b["det"])
                self.assertEqual(a["det"], c["det"])
                self.assertEqual(a["inputs_digest"], c["inputs_digest"])

    def test_seed_reaches_the_generated_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                held_out = self.raw(workload, 4242)
                other = self.raw(workload, 11)
                self.assertNotEqual(held_out["inputs_digest"],
                                    other["inputs_digest"])
                self.assertEqual(held_out["inputs_digest"],
                                 self.raw(workload, 4242)["inputs_digest"])
                self.assertEqual(held_out["seed"], 4242)

    def test_traced_run_reports_layer_values(self):
        raw = self.raw("fleet_1m", 5, trace=True)
        for key in ("arrival_ns", "route_ns", "send_ns", "compute_ns",
                    "simcore_run_ns_per_event"):
            self.assertGreater(raw["host"][key], 0.0, key)
        self.assertTrue(any(raw["pass_traced"]))
        self.assertFalse(all(raw["pass_traced"]))

    def test_result_line_has_exactly_the_contract_keys(self):
        for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", "raid_sweep", "--seed", "3", "--seconds",
                 str(SECONDS), "--trace", str(trace), "--small"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(names))


class MissingSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        scratch = os.path.join(run.build_dir(), "no_sources_checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet_1m",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180, check=False)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class SharedTargetDirTest(unittest.TestCase):
    def test_checkouts_sharing_an_absolute_target_dir_build_apart(self):
        scratch = os.path.join(run.build_dir(), "shared_target_checkouts")
        shutil.rmtree(scratch, ignore_errors=True)
        target = os.path.join(scratch, "target")
        dirs = []
        for name in ("a", "b", "a"):
            checkout = os.path.join(scratch, name)
            if not os.path.isdir(checkout):
                shutil.copytree(BENCH_DIR, os.path.join(checkout, "perfbench"),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path.insert(0, 'perfbench'); import run; "
                 "print(run.build_dir())"],
                cwd=checkout, env=dict(os.environ, CARGO_TARGET_DIR=target),
                stdout=subprocess.PIPE, text=True, check=True)
            dirs.append(proc.stdout.strip())
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(dirs[0], dirs[1])
        self.assertEqual(dirs[0], dirs[2])
        for d in dirs:
            self.assertEqual(os.path.dirname(d), target)


if __name__ == "__main__":
    unittest.main()
