#!/usr/bin/env python3
"""Tests of the benchmark itself, on the real inputs with one short run each.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds the benchmark, and the
whole file takes a few minutes.  They check that the default seed
reproduces the Table-3 workload (10,981 minimize calls, 2,777 kept,
40,828 best-cover nodes on table3 and batch_fsm), that the traced table3
layers tile the wall time, that the work counters repeat exactly between
two runs of the same seed, that a seed changes the inputs, and that the
runner refuses to run without the library sources.
"""

import functools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Counters that must be identical between two runs of one code and seed.
EXACT = ["bdd.steps", "bdd.unique_inserts", "bdd.gc_runs", "bdd.cache_lookups",
         "bdd.cache_hit_rate", "bdd.ite_lookups", "bdd.ite_hit_rate",
         "bdd.and_lookups", "bdd.and_hit_rate", "bdd.xor_lookups",
         "bdd.xor_hit_rate", "bdd.user_lookups", "bdd.user_hit_rate",
         "bdd.quantify_lookups", "bdd.quantify_hit_rate", "minimize.lb_cubes",
         "engine.shards", "engine.warm_jobs", "engine.duplicate_jobs"]


def run(workload, trace, seed=1, cwd=ROOT):
    # One pass (two with tracing: an untraced and a traced one).
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.1", "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)


@functools.lru_cache(maxsize=None)
def result(workload, trace, seed=1, repeat=0):
    """Result and info of one run; \\p repeat asks for a separate process."""
    del repeat
    done = run(workload, trace, seed)
    if done.returncode != 0:
        raise AssertionError(f"run.py failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    info = {}
    for line in lines:
        if line.startswith("# info "):
            info = json.loads(line[len("# info "):])
    return json.loads(lines[-1]), info


class BenchmarkTest(unittest.TestCase):
    def test_default_seed_reproduces_table3_workload(self):
        for workload in ("table3", "batch_fsm"):
            final, info = result(workload, 0)
            self.assertTrue(final["correct"], final)
            self.assertEqual(final["failed"], 0)
            self.assertEqual(final["metrics"]["success_rate"]["value"], 1)
            self.assertEqual(info["minimize_calls"], 10981, workload)
            self.assertEqual(info["kept_calls"], 2777, workload)
            self.assertEqual(final["metrics"]["cover_nodes"]["value"], 40828,
                             workload)

    def test_traced_table3_layers_tile_the_wall(self):
        final, info = result("table3", 1)
        self.assertTrue(final["correct"], final)
        self.assertLess(info["tiling_error"], 0.01)
        metrics = final["metrics"]
        self.assertEqual(metrics["fsm.minimize_calls"]["value"], 10981)
        self.assertGreater(metrics["fsm.traversal_s"]["value"], 0.0)
        self.assertGreater(metrics["minimize.opt_lv_s"]["value"], 0.0)
        self.assertGreater(metrics["minimize.lb_cubes"]["value"], 0)

    def test_counters_repeat_exactly(self):
        for workload in ("table3", "batch_fsm", "batch_small"):
            first, _ = result(workload, 1)
            second, _ = result(workload, 1, repeat=1)
            self.assertTrue(first["correct"] and second["correct"])
            for name in EXACT:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 f"{workload} {name} is nondeterministic")

    def test_seed_changes_inputs_and_outputs_are_checked(self):
        for workload in ("table3", "batch_fsm", "batch_small"):
            a, _ = result(workload, 0, seed=1)
            b, _ = result(workload, 0, seed=2)
            self.assertTrue(a["correct"] and b["correct"], (a, b))
            self.assertEqual(b["failed"], 0)
            self.assertNotEqual(a["metrics"]["cover_nodes"]["value"],
                                b["metrics"]["cover_nodes"]["value"])

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("table3", 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
