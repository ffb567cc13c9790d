#!/usr/bin/env python3
"""Run one workload of the bddmin benchmark and print its result.

    python3 perfbench/run.py --workload table3|batch_fsm|batch_small \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/ (the library
sources in src/ plus the benchmark program in perfbench/src/) with CMake into
.bench_build/perfbench, runs the program with the BDDMIN_* environment
knobs removed, checks that it printed exactly the metrics
BENCHMARK.json lists for the mode (end-to-end with --trace 0, per-layer
with --trace 1) with the listed units, and prints:

    # host {...}     CPU, nproc, compiler, build type, telemetry, commit, seed
    # info {...}     pass and sample counts, tiling error, ...
    # error ...      one line per correctness-gate violation
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The JSON result is always the last line.  The exit code is 0 whenever a
result was printed (a wrong output shows as "correct": false) and
non-zero when no result could be produced.  The records CSV, the batch
report CSV and a Chrome trace of the traced spans are written to
.bench_build/perfbench/out.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (BENCH_DIR.parent / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/CMakeLists.txt) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench"


def commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(spec, trace):
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("run from the repository root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = root / ".bench_build" / "perfbench"
    exe = build(root, build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("BDDMIN_")}
    command = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", str(out_dir)]
    done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"perfbench exited with code {done.returncode}")
    raw = json.loads(lines[-1])

    want = expected_metrics(spec, args.trace)
    got = {name: m["unit"] for name, m in raw["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, unit mismatch {wrong}")
    for name, metric in raw["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")

    host = dict(raw["host"], commit=commit(root))
    print("# host " + json.dumps(host, sort_keys=True))
    print("# info " + json.dumps(raw["info"], sort_keys=True))
    for error in raw["errors"]:
        print("# error " + error)
    result = {
        "correct": bool(raw["correct"]) and not raw["errors"],
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": raw["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
