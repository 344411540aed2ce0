// harmonia_perfbench — the repository benchmark harness.
//
//   harmonia_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --work-dir <dir>
//
// Runs one workload, checks every reply against a reference oracle, and
// prints a human-readable report followed by one JSON line:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of the layers the workload exercises. Any wrong reply exits
// non-zero without printing metrics.
// See perfbench/README.md for the workloads and metric definitions.
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: harmonia_perfbench --workload "
               "<serve_read_zipf|serve_mixed_delta|offline_phase_uniform> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (args.work_dir.empty()) return usage("--work-dir is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  Outcome out;
  try {
    std::filesystem::create_directories(args.work_dir);
    if (args.workload == "serve_read_zipf" || args.workload == "serve_mixed_delta")
      out = run_serving(args);
    else if (args.workload == "offline_phase_uniform")
      out = run_offline(args);
    else
      return usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (!out.correct) {
    std::fprintf(stderr, "FAIL: wrong output: %s\n", out.mismatch.c_str());
    return 1;
  }

  // Every metric is a finite number, reported once; anything else is a
  // harness bug, not a measurement. run.py checks the set against
  // BENCHMARK.json.
  std::set<std::string> seen;
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value) || !seen.insert(m.name).second) {
      std::fprintf(stderr, "error: metric %s is %s\n", m.name.c_str(),
                   std::isfinite(m.value) ? "duplicated" : "not finite");
      return 1;
    }
  }

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
