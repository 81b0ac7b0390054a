#!/usr/bin/env python3
"""End-to-end benchmark of the Boreas closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 30 --trace 0

Builds the simulator libraries and the benchmark binary from source
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build),
runs the binary single-threaded, checks that its result names every
metric BENCHMARK.json declares, and prints that result as the last line
of stdout. Build logs and progress go to stderr. Exits non-zero, without
a result, if the sources are missing or the build or run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, build_dir, timeout):
    """Run a build step with its output on stderr; fail on error."""
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, TMPDIR=tmp),
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], build_dir, 300)
    run_logged(["cmake", "--build", build_dir, "--target",
                "boreas_perfbench", "-j", "4"], build_dir, 840)
    return os.path.join(build_dir, "boreas_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["eval_grid", "long_run"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans_{args.workload}_{args.seed}.json")]
    env = dict(os.environ, BOREAS_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed no result")
    result = json.loads(lines[-1])
    missing = [n for n in expected_metrics(args.trace)
               if n not in result["metrics"]]
    if missing:
        fail(f"result lacks metrics: {', '.join(missing)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
