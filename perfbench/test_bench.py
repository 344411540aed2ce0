#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py      # from the root of a checkout

- Schema: every workload, untraced and traced, prints each metric that
  BENCHMARK.json declares, with its unit, in the human report and in the
  final JSON line; end-to-end values are finite and non-zero.
- Determinism: two runs with the same seed give identical modeled
  end-to-end metrics and identical modeled per-layer counts; a different
  seed changes the generated stream.
- Correctness gate: a wrong reply makes the command exit non-zero
  without a result. serve_mixed_delta seed 2 trips the known sharded-scan
  defect (README.md, known defects) in a knee probe; once the library is
  fixed, that run passes and this test needs another wrong reply.

serve_mixed_delta is not in BENCHMARK.json while that defect stands, so
the tests name it beside the registered workloads; seeds 3, 7 and 8 are
among those on which it currently runs clean.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["serve_mixed_delta"]

# Modeled (virtual-clock) end-to-end metrics: identical for one seed.
MODELED_E2E = ["p50_us", "p99_us", "max_rate_mqs", "throughput_mqs",
               "update_visible_p99_us"]
# Per-layer metrics measured on the host clock; every other one is modeled.
HOST_LAYER = re.compile(r"(_host_s|host_ns_per_\w+|stream_gen_s|trace_overhead_frac)$")


def invoke(workload, seed, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)


def run(workload, seed, trace):
    proc = invoke(workload, seed, trace)
    if proc.returncode != 0:
        raise AssertionError("%s seed %s trace %s exited %d:\n%s\n%s" % (
            workload, seed, trace, proc.returncode, proc.stdout[-3000:], proc.stderr[-3000:]))
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def fingerprint(report):
    for line in report:
        m = re.search(r"stream fingerprint ([0-9a-f]+)", line)
        if m:
            return m.group(1)
    raise AssertionError("no stream fingerprint in report")


class Schema(unittest.TestCase):
    def check(self, workload, trace):
        declared = BENCH["per_layer" if trace else "end_to_end"]
        report, result = run(workload, 3, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
            # The human report names the metric and its unit too.
            pattern = re.compile(r"^\s+%s\s+\S+ %s$" % (re.escape(m["name"]), re.escape(m["unit"])))
            self.assertTrue(any(pattern.match(l) for l in report), m["name"])

    def test_workloads(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    self.check(w, trace)


class Determinism(unittest.TestCase):
    def test_same_seed_same_modeled_results(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a_report, a = run(w, 7, 0)
                b_report, b = run(w, 7, 0)
                c_report, _ = run(w, 8, 0)
                self.assertEqual(fingerprint(a_report), fingerprint(b_report))
                self.assertNotEqual(fingerprint(a_report), fingerprint(c_report))
                for name in MODELED_E2E:
                    self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)

    def test_same_seed_same_layer_counts(self):
        _, a = run("serve_mixed_delta", 7, 1)
        _, b = run("serve_mixed_delta", 7, 1)
        modeled = [n for n in a["metrics"] if not HOST_LAYER.search(n)]
        self.assertGreater(len(modeled), 30)
        for name in modeled:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)


class CorrectnessGate(unittest.TestCase):
    def test_wrong_reply_fails_the_run(self):
        proc = invoke("serve_mixed_delta", 2, 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("FAIL: wrong output: knee probe", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
