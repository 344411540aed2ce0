#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the library and the benchmark
harness from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs
one workload, and relays the harness's report. The last line of standard
output is the JSON result. Exits non-zero, without a result, when the
build fails, an output is wrong, or the harness fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_read_zipf", "serve_mixed_delta", "offline_phase_uniform")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "harmonia_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("error: benchmark build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "harmonia_perfbench")


def complete(result, traced):
    """Checks the reported metrics against BENCHMARK.json, whose lists are
    the one schema: every declared metric, in its unit, and no other."""
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        sys.stderr.write("error: metrics not in BENCHMARK.json: %s\n" % ", ".join(unknown))
        return False
    for m in declared:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.stderr.write("error: metric %s [%s] missing or in another unit\n"
                             % (m["name"], m["unit"]))
            return False
    result["metrics"] = {n: metrics[n] for n in names}
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 1

    # A run owns one scratch directory under the checkout (snapshots and
    # the traced run's span dump); stale state from an earlier run is
    # removed first.
    work_dir = os.path.join(root, ".bench_work", "%s-seed%d-trace%s"
                            % (args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: harness exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        # The harness prints its JSON result only on success.
        sys.stdout.write(proc.stdout)
        sys.stderr.write("error: harness exited with %d\n" % proc.returncode)
        return proc.returncode
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (IndexError, ValueError):
        sys.stderr.write("error: harness printed no JSON result\n")
        return 1
    if result.get("correct") is not True:
        sys.stderr.write("error: harness reported incorrect output\n")
        return 1
    if not complete(result, args.trace == "1"):
        return 1
    report = proc.stdout.rstrip("\n").split("\n")[:-1]
    sys.stdout.write("\n".join(report) + "\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
