#!/usr/bin/env python3
"""Build fosc-bench from source, run one workload, print a one-line JSON result.

Run from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/e2e/fosc_bench.exe with dune into .bench_build/, runs the
workload (traced when --trace is 1), forwards its metric lines, and prints
as the last stdout line one JSON object: correct, attempted, failed, and the
end_to_end (untraced) or per_layer (traced) metrics listed in BENCHMARK.json.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./bench/e2e/fosc_bench.exe"
EXE = os.path.join(BUILD_DIR, "default", "bench", "e2e", "fosc_bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)

    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(BUILD_DIR, "result-%s.json" % tag)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", result_path]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD_DIR, "trace-%s.jsonl" % tag)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload %s ran past %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(out)

    # A run whose checks fail still writes its result (correct: false);
    # a run that crashed writes none.
    try:
        with open(result_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        fail("workload %s exited %d without a result" % (args.workload, proc.returncode))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the run" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
