#!/usr/bin/env python3
"""End-to-end pipeline benchmark: build, self-test, run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and the lsm libraries under src/) into .bench_build/perfbench;
later runs rebuild only what changed. The harness self-test runs before
every measurement. The last line of standard output is the result object
printed by perfbench_e2e; it is checked against BENCHMARK.json's metric
lists before it is passed on. With --trace 1 the per-layer ledger is
written to .bench_build/perfbench/ledger-<workload>-<seed>.md.

Exit status is non-zero, with no result line, when the build, the
self-test or the result check fails, and non-zero with a result whose
"correct" is false when an output check of the run failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("live_cif", "trace_study", "mux_steady", "mux_churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_e2e", "perfbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def result_ok(line, trace):
    """True when `line` is a result object naming exactly the listed metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        log("last line is not JSON")
        return False
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("result keys differ from correct/attempted/failed/metrics")
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        log("attempted must be a whole number >= 1")
        return False
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        log(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
            f"want {sorted(want.items())}")
        return False
    return True


def run_binary(command):
    try:
        return subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"{command[0]} failed: {error}")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    selftest = run_binary([os.path.join(BUILD, "perfbench_selftest")])
    if selftest is None or selftest.returncode != 0:
        log("harness self-test failed")
        return 1

    command = [os.path.join(BUILD, "perfbench_e2e"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--ledger", os.path.join(
            BUILD, f"ledger-{args.workload}-{args.seed}.md")]
    done = run_binary(command)
    if done is None:
        return 1
    lines = done.stdout.splitlines()
    if not lines or not result_ok(lines[-1], args.trace):
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
