// Shared pieces of the benchmark harness: run arguments, the metric/result
// records printed as the final JSON line, benchmark-side spans, and the
// reference oracle every workload checks its replies against.
//
// The harness only calls the library's public entry points; nothing here
// reaches into src/ internals.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "btree/btree.hpp"
#include "gpusim/metrics.hpp"
#include "harmonia/index.hpp"
#include "queries/batch.hpp"

namespace perfbench {

using harmonia::btree::Key;
using harmonia::btree::Value;

/// Monotonic host wall clock in seconds.
double wall_now();

/// Peak resident set of this process so far, in MB (getrusage).
double peak_rss_mb();

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall seconds the timed phase keeps repeating the workload for.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory owned by this run (snapshots, span dumps).
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run hands back to main(): the correctness verdict,
/// the request tallies and the metrics for the final JSON line.
struct Outcome {
  bool correct = true;
  /// First wrong reply, for the error message (empty when correct).
  std::string mismatch;
  std::uint64_t attempted = 0;
  /// Requests that were dropped or shed (a wrong reply fails the run).
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const std::string& what) {
    if (correct) mismatch = what;
    correct = false;
  }
};

/// Benchmark-side spans (kept in memory, written once at the end). Each
/// span carries both clocks: host wall seconds since the log was created,
/// and the virtual (modeled) seconds of the simulated system where the
/// span has one (0 otherwise).
class SpanLog {
 public:
  static constexpr std::int64_t kNoParent = -1;
  static constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

  SpanLog();

  std::int64_t open(const std::string& name, std::int64_t parent,
                    std::uint64_t request = kNoRequest, double virt = 0.0);
  void close(std::int64_t id, double virt = 0.0);

  void write_csv(const std::filesystem::path& path) const;

  /// Per span name: count, total wall and self wall (duration minus the
  /// part covered by its child spans).
  struct Layer {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<Layer> layers() const;

 private:
  struct Span {
    std::string name;
    std::int64_t parent;
    std::uint64_t request;
    double host_start, host_end;
    double virt_start, virt_end;
  };
  double origin_;
  std::vector<Span> spans_;
};

/// Prints the span table: count, total and self wall time per span name.
void print_layer_table(const SpanLog& spans);

/// RAII span over a scope; a null log makes it a no-op, so traced and
/// untraced runs share one code path.
class Scope {
 public:
  Scope(SpanLog* log, const std::string& name, std::int64_t parent = SpanLog::kNoParent)
      : log_(log), id_(log ? log->open(name, parent) : SpanLog::kNoParent) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::int64_t id_;
};

/// Reference key/value state: the bulk-loaded keys (values from
/// btree::value_for_key) plus every applied op, with the index's
/// semantics (insert upserts; update and delete of an absent key are
/// no-ops). Only changed entries are stored beside the base key array,
/// so the oracle stays small next to the index it checks.
class Oracle {
 public:
  explicit Oracle(std::vector<Key> sorted_keys);

  void apply(const harmonia::queries::UpdateOp& op);
  void apply(std::span<const harmonia::queries::UpdateOp> ops) {
    for (const auto& op : ops) apply(op);
  }
  std::optional<Value> get(Key key) const;
  /// Values of the first n live keys >= lo, ascending.
  std::vector<Value> scan(Key lo, std::size_t n) const;
  /// Every live entry, ascending.
  std::vector<harmonia::btree::Entry> entries() const;

 private:
  /// Index of `key` in base_, or npos.
  std::size_t base_index(Key key) const;
  Value base_value(std::size_t i) const;

  std::vector<Key> base_;
  std::vector<std::uint8_t> live_;
  /// New values of base keys.
  std::unordered_map<Key, Value> overrides_;
  /// Live keys that are not in the base.
  std::map<Key, Value> added_;
};

/// Device-counter sums over many kernel launches.
struct KernelTally {
  std::uint64_t steps = 0, coherent = 0, loads = 0, divergent = 0;
  std::uint64_t tx = 0, dram = 0, l2 = 0, readonly = 0, constant = 0;
  void add(const harmonia::gpusim::KernelMetrics& m);
};

/// Cold-cache kernel seconds of batches under the reference query
/// options, with PSA off, and with the fanout-wide thread group: the
/// attribution of the PSA and NTG gains (Fig. 13).
struct KernelVariants {
  double reference = 0.0, unsorted = 0.0, wide = 0.0;
  /// Runs the three variants of `batch`, each after a cache flush so
  /// none inherits lines another one fetched.
  void add(harmonia::HarmoniaIndex& index, std::span<const Key> batch,
           const harmonia::QueryOptions& reference_options);
  double psa_gain() const { return unsorted / reference; }
  double ntg_gain() const { return wide / reference; }
};

/// num / den, or 0 when den is 0 (a layer the workload bypasses).
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolated percentile (p in [0, 100]); sorts `xs`.
double percentile(std::vector<double>& xs, double p);
double median(std::vector<double> xs);

/// An input seed for one purpose (`salt`) of a run seeded with `seed`.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// FNV-1a over a byte view; used to print a stream fingerprint.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL);

/// Workload entry points (serving.cpp / offline.cpp).
Outcome run_serving(const RunArgs& args);
Outcome run_offline(const RunArgs& args);

}  // namespace perfbench
