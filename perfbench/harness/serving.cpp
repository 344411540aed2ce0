// The two serving workloads: serve_read_zipf and serve_mixed_delta.
//
// Both drive shard::ServingStack through serve::Backend::run with the
// benchmark's own RequestSource over a seeded open-loop stream. One pass
// = build the stack, generate the stream, serve it, then (when asked)
// serve the write probe on the same stack. Modeled metrics come from the
// first pass and must repeat exactly on every later pass of the same seed;
// host metrics are medians over the passes that fit in --seconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench.hpp"
#include "harmonia/psa.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/recovery.hpp"
#include "serve/epoch_updater.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"
#include "shard/plan.hpp"
#include "shard/sharded_index.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using harmonia::queries::Distribution;
using harmonia::queries::UpdateOp;
using harmonia::serve::EpochMode;
using harmonia::serve::Request;
using harmonia::serve::RequestKind;
using harmonia::serve::Response;
using harmonia::serve::ServerReport;

struct Spec {
  unsigned log2_keys;
  unsigned shards;
  Distribution dist;
  /// Fixed offered rate of the measured pass.
  double rate_mqs;
  std::uint64_t requests;
  double update_fraction;
  double scan_fraction;
  EpochMode mode;
  /// Write-ahead log + snapshots into a run-owned directory, then a cold
  /// start from it after the run.
  bool persist;
};

// serve_read_zipf: batches fill to max_batch, so PSA/NTG/kernel and
// simulator cost set the tail and the knee; the zipf hot shard sets the
// knee. The 2^22-key region (~48 MB) is far above the modeled L2 while
// the zipf hot set fits in cache. No epochs, updates, scans or
// persistence in the measured stream.
// serve_mixed_delta: writes beside reads through delta epochs (patch,
// overlay, compaction), the WAL and snapshots, recovery, and the range
// kernel. Batches stay small (~280), so the large-batch kernel path does
// little work.
Spec spec_for(const std::string& workload) {
  if (workload == "serve_read_zipf")
    return {22, 4, Distribution::kZipfian, 128.0, 1u << 18, 0.0, 0.0,
            EpochMode::kQuiesce, false};
  return {20, 4, Distribution::kUniform, 16.0, 1u << 17, 0.3, 0.1,
          EpochMode::kIncremental, true};
}

/// Tail limit of the knee search: 2x the default 200 us batch deadline.
constexpr double kP99Limit = 400e-6;
/// Start-up and drain edges left out of latency percentiles (2x the
/// default batch deadline).
constexpr double kEdgeSeconds = 400e-6;
/// Knee search: gallop by factors of 2 from the fixed rate (at most
/// kKneeCeiling away), then bisect that bracket kKneeSteps times, to
/// 1/1024 of it (~0.1% of the rate): fine enough to resolve the knee's
/// seed-to-seed variation (~0.3%) instead of rounding every seed to one
/// value.
constexpr int kKneeSteps = 10;
constexpr double kKneeCeiling = 64.0;
/// Virtual duration of every knee probe: 5x the tail limit.
constexpr double kKneeSeconds = 2e-3;
/// Write probe: value updates only, so no probe epoch is a compaction and
/// its host rate does not depend on whether one lands inside it; four
/// epochs at the default 4096-update trigger (fewer than the default
/// 8-epoch snapshot cadence), offered at the mixed workload's rate.
constexpr std::uint64_t kProbeUpdates = 16384;
constexpr double kProbeRateMqs = 16.0;
/// Results each scan asks for.
constexpr std::uint32_t kScanN = 16;
constexpr int kMinPasses = 3;

harmonia::serve::OpenLoopSpec stream_spec(const Spec& spec, std::uint64_t seed,
                                          double rate_mqs, std::uint64_t count) {
  harmonia::serve::OpenLoopSpec os;
  os.arrivals_per_second = rate_mqs * 1e6;
  os.count = count;
  os.update_fraction = spec.update_fraction;
  os.scan_fraction = spec.scan_fraction;
  os.scan_n = kScanN;
  os.dist = spec.dist;
  os.seed = derive(seed, 1);
  return os;
}

UpdateOp op_of(const Request& r) { return {r.op, r.key, r.value}; }

bool is_query(RequestKind k) { return k == RequestKind::kPoint || k == RequestKind::kScan; }

/// The benchmark's request source: a pre-built arrival-sorted stream that
/// notes when the first reply arrives and, when traced, records a span
/// around every pop and every completion callback.
class BenchSource final : public harmonia::serve::RequestSource {
 public:
  BenchSource(const std::vector<Request>& stream, SpanLog* spans, std::int64_t parent)
      : stream_(stream), spans_(spans), parent_(parent) {}

  const Request* peek() const override {
    return next_ < stream_.size() ? &stream_[next_] : nullptr;
  }
  Request pop() override {
    const std::int64_t id =
        spans_ ? spans_->open("source.pop", parent_, stream_[next_].id,
                              stream_[next_].arrival)
               : SpanLog::kNoParent;
    Request r = stream_[next_++];
    if (spans_) spans_->close(id, r.arrival);
    return r;
  }
  void on_complete(const Response& resp) override {
    if (first_reply_ == 0.0) first_reply_ = wall_now();
    if (spans_) {
      const std::int64_t id =
          spans_->open("source.on_complete", parent_, resp.id, resp.dispatch);
      spans_->close(id, resp.completion);
    }
  }
  double first_reply() const { return first_reply_; }

 private:
  const std::vector<Request>& stream_;
  SpanLog* spans_;
  std::int64_t parent_;
  std::size_t next_ = 0;
  double first_reply_ = 0.0;
};

/// One build-and-serve pass.
struct Pass {
  std::vector<Key> keys;
  std::vector<Request> stream;
  std::vector<Request> probe_stream;
  ServerReport report;
  ServerReport probe_report;
  /// (group size, sort bits) the dispatch path used.
  std::pair<unsigned, unsigned> knobs{0, 0};
  double setup_s = 0.0;
  /// ServingStack construction: keys, trees, device images.
  double build_s = 0.0;
  double stream_gen_s = 0.0;
  double run_s = 0.0;
  double probe_s = 0.0;
  /// Whole pass wall (build, stream, serve, probe), for trace overhead.
  double wall_s = 0.0;
  /// Trace events the measured stream recorded (the write probe's come
  /// after them).
  std::size_t measured_events = 0;
};

harmonia::shard::TopologySpec topology(const Spec& spec, std::uint64_t seed) {
  harmonia::shard::TopologySpec topo;
  topo.log2_keys = spec.log2_keys;
  topo.shards = spec.shards;
  topo.seed = seed;
  return topo;
}

harmonia::serve::ServeOptions serve_options(const Spec& spec, const fs::path& snap_dir,
                                            const harmonia::obs::Observer& obs) {
  harmonia::serve::ServeOptions opts;
  opts.epoch.mode = spec.mode;
  opts.epoch.apply_threads = 1;
  opts.obs = obs;
  // Flush policy: the repository's — records are streamed to the files,
  // with no fsync, the same for every commit measured.
  if (spec.persist) opts.persist.dir = snap_dir.string();
  return opts;
}

Pass serve_pass(const Spec& spec, std::uint64_t seed, double rate_mqs, std::uint64_t count,
                const fs::path& snap_dir, bool probe, SpanLog* spans,
                const harmonia::obs::Observer& obs = {}) {
  // A previous pass's directory goes before the clock starts, and so does
  // the free memory earlier passes left in the allocator: every pass then
  // builds in fresh pages, as a new process would. Without this the build
  // time follows the heap state the previous pass left (0.07-0.16 s from
  // pass to pass on one seed), and its median follows the pass count.
  if (spec.persist) fs::remove_all(snap_dir);
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  Pass p;
  Scope pass_span(spans, "pass");
  const double t0 = wall_now();
  std::unique_ptr<harmonia::shard::ServingStack> stack;
  {
    Scope s(spans, "setup.stack_build", pass_span.id());
    stack = std::make_unique<harmonia::shard::ServingStack>(
        topology(spec, seed), serve_options(spec, snap_dir, obs));
    p.build_s = wall_now() - t0;
  }
  {
    Scope s(spans, "queries.stream_gen", pass_span.id());
    const double g0 = wall_now();
    p.stream = harmonia::serve::make_open_loop(stack->keys(),
                                               stream_spec(spec, seed, rate_mqs, count));
    p.stream_gen_s = wall_now() - g0;
  }
  harmonia::serve::Backend& backend = stack->backend();
  {
    Scope s(spans, "serve.run", pass_span.id());
    BenchSource source(p.stream, spans, s.id());
    const double r0 = wall_now();
    p.report = backend.run(source);
    p.run_s = wall_now() - r0;
    p.setup_s = source.first_reply() - t0;
    if (obs.trace != nullptr) p.measured_events = obs.trace->size();
  }
  p.knobs = backend.effective_query_knobs();
  if (probe) {
    Scope s(spans, "probe.run", pass_span.id());
    harmonia::serve::OpenLoopSpec ps;
    ps.arrivals_per_second = kProbeRateMqs * 1e6;
    ps.count = kProbeUpdates;
    ps.update_fraction = 1.0;
    ps.insert_fraction = 0.0;
    ps.delete_fraction = 0.0;
    ps.seed = derive(seed, 2);
    p.probe_stream = harmonia::serve::make_open_loop(stack->keys(), ps);
    // The virtual clock continues where the measured stream ended.
    for (Request& r : p.probe_stream) r.arrival += p.report.makespan;
    BenchSource source(p.probe_stream, spans, s.id());
    const double r0 = wall_now();
    p.probe_report = backend.run(source);
    p.probe_s = wall_now() - r0;
  }
  p.keys = stack->keys();
  stack.reset();  // closes the update logs before anyone reads them
  p.wall_s = wall_now() - t0;
  return p;
}

/// Reply check against a snapshot oracle: updates grouped by the epoch
/// that applied them, each query compared with the state after exactly
/// the epochs its response reports. Returns the final state (measured
/// stream, then the probe).
Oracle check_replies(const Pass& p, Outcome& out) {
  Oracle oracle(p.keys);
  const auto check_stream = [&](const std::vector<Request>& stream,
                                const ServerReport& report) {
    std::map<unsigned, std::vector<std::pair<std::uint64_t, UpdateOp>>> epochs;
    std::vector<const Response*> queries;
    for (const Response& r : report.responses) {
      if (r.id >= stream.size() || stream[r.id].id != r.id) {
        out.fail("response id " + std::to_string(r.id) + " matches no request");
        return;
      }
      ++out.attempted;
      if (r.dropped) {
        ++out.failed;
        continue;
      }
      if (r.kind == RequestKind::kUpdate)
        epochs[r.epoch].emplace_back(r.id, op_of(stream[r.id]));
      else
        queries.push_back(&r);
    }
    std::stable_sort(queries.begin(), queries.end(),
                     [](const Response* a, const Response* b) { return a->epoch < b->epoch; });
    auto next = epochs.begin();
    const auto apply_through = [&](unsigned epoch) {
      for (; next != epochs.end() && next->first <= epoch; ++next) {
        std::sort(next->second.begin(), next->second.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [id, op] : next->second) oracle.apply(op);
      }
    };
    for (const Response* r : queries) {
      apply_through(r->epoch);
      const Request& q = stream[r->id];
      if (q.kind == RequestKind::kPoint) {
        const Value want = oracle.get(q.key).value_or(harmonia::kNotFound);
        if (r->value != want) {
          out.fail("point request " + std::to_string(q.id) + " at epoch " +
                   std::to_string(r->epoch) + " returned " + std::to_string(r->value) +
                   ", expected " + std::to_string(want));
          return;
        }
      } else if (const auto want = oracle.scan(q.key, q.scan_n); r->range_values != want) {
        std::size_t at = 0;
        while (at < want.size() && at < r->range_values.size() &&
               want[at] == r->range_values[at])
          ++at;
        out.fail("scan request " + std::to_string(q.id) + " (lo " + std::to_string(q.key) +
                 ", n " + std::to_string(q.scan_n) + ") at epoch " +
                 std::to_string(r->epoch) + " returned " +
                 std::to_string(r->range_values.size()) + " values, expected " +
                 std::to_string(want.size()) + "; first difference at " + std::to_string(at));
        return;
      }
    }
    apply_through(~0u);
  };
  check_stream(p.stream, p.report);
  check_stream(p.probe_stream, p.probe_report);
  return oracle;
}

/// Arrival-to-reply seconds of the queries (or the updates) that arrive
/// in the stream's steady window, kEdgeSeconds after its first arrival to
/// kEdgeSeconds before its last; dropped ones are infinitely late. At the
/// end of a finite stream every shard's last partial batch waits out the
/// batch deadline, and that drain alone can hold more than 1% of the
/// requests.
std::vector<double> latencies(const ServerReport& report, bool updates) {
  double first = INFINITY, last = -INFINITY;
  for (const Response& r : report.responses) {
    first = std::min(first, r.arrival);
    last = std::max(last, r.arrival);
  }
  std::vector<double> xs;
  for (const Response& r : report.responses)
    if ((r.kind == RequestKind::kUpdate) == updates && r.arrival >= first + kEdgeSeconds &&
        r.arrival <= last - kEdgeSeconds)
      xs.push_back(r.dropped ? INFINITY : r.latency());
  return xs;
}

bool meets_limit(const ServerReport& report) {
  auto lat = latencies(report, false);
  return report.dropped + report.shed == 0 && percentile(lat, 99.0) <= kP99Limit;
}

/// The highest offered rate whose pass keeps p99 <= kP99Limit with no
/// failed request, searched on the virtual clock with the same stream
/// seed for every probe. Every probe pass is reply-checked: a wrong reply
/// fails the run, as in any other checked pass, and ends the search.
double knee_rate(const Spec& spec, std::uint64_t seed, const fs::path& dir,
                 bool fixed_rate_meets, Outcome& out) {
  const auto meets = [&](double rate) {
    // Every probe spans the same virtual duration, so a faster rate offers
    // proportionally more requests and a growing backlog has as long to
    // show in the tail at every rate.
    const auto count = static_cast<std::uint64_t>(std::ceil(rate * 1e6 * kKneeSeconds));
    const Pass p = serve_pass(spec, seed, rate, count, dir / "knee", false, nullptr);
    Outcome probe;
    check_replies(p, probe);
    if (!probe.correct) {
      char at[64];
      std::snprintf(at, sizeof at, "knee probe at %.3f Mq/s: ", rate);
      out.fail(at + probe.mismatch);
    }
    return meets_limit(p.report);
  };
  double lo = spec.rate_mqs, hi = spec.rate_mqs;
  if (fixed_rate_meets) {
    for (hi = 2.0 * lo; hi < kKneeCeiling * spec.rate_mqs && meets(hi) && out.correct; hi *= 2.0)
      lo = hi;
  } else {
    for (lo = 0.5 * hi; lo > spec.rate_mqs / kKneeCeiling && !meets(lo) && out.correct; lo *= 0.5)
      hi = lo;
  }
  for (int i = 0; i < kKneeSteps && out.correct; ++i) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  fs::remove_all(dir / "knee");
  return lo;
}

/// Cold start after the run: a ServingStack built over the run's
/// directory with recovery on, so every shard cold-starts through the
/// library (newest snapshot, overlay fold, log replay, checkpoint). Shards
/// start in parallel on their own devices, so the modeled cold start is
/// the slowest shard. The recovered stack is then read back through its
/// own serving path and must hold exactly the final oracle state: every
/// acknowledged write survives. Without persistence there is nothing to
/// recover.
struct ColdStart {
  bool recovered = false;
  double modeled_s = 0.0;
  double host_s = 0.0;
  std::uint64_t replayed_ops = 0;
  std::uint64_t disk_bytes = 0;
};

/// Read-back scans: each asks for this many values (the recovered stack's
/// result cap), one arrival per virtual microsecond.
constexpr std::uint32_t kReadBackN = 1024;
constexpr double kReadBackGap = 1e-6;

ColdStart cold_start(const Spec& spec, std::uint64_t seed, const fs::path& snap_dir,
                     const Oracle& final_state, Outcome& out, SpanLog* spans,
                     std::int64_t parent) {
  Scope span(spans, "persist.cold_start", parent);
  ColdStart cs;
  if (!spec.persist) return cs;
  for (const auto& f : fs::recursive_directory_iterator(snap_dir))
    if (f.is_regular_file()) cs.disk_bytes += f.file_size();
  cs.recovered = true;
  harmonia::serve::ServeOptions opts = serve_options(spec, snap_dir, {});
  opts.persist.recover = true;
  opts.batch.max_range_results = kReadBackN;
  std::unique_ptr<harmonia::shard::ServingStack> stack;
  {
    Scope s(spans, "persist.recover", span.id());
    const double t0 = wall_now();
    stack = std::make_unique<harmonia::shard::ServingStack>(topology(spec, seed), opts);
    cs.host_s = wall_now() - t0;
  }
  for (const auto& rep : stack->recoveries()) {
    cs.modeled_s = std::max(cs.modeled_s, rep.modeled_seconds);
    cs.replayed_ops += rep.ops_replayed + rep.overlay_replayed;
  }

  // Scans that tile the acknowledged state: the first from key 0, so a
  // stray key below the first live one shows too; each must return
  // exactly the next kReadBackN live values.
  Scope s(spans, "persist.read_back", span.id());
  const auto want = final_state.entries();
  std::vector<Request> scans;
  for (std::size_t i = 0; i == 0 || i < want.size(); i += kReadBackN) {
    Request r;
    r.id = scans.size();
    r.kind = RequestKind::kScan;
    r.key = i == 0 ? 0 : want[i].key;
    r.scan_n = kReadBackN;
    r.arrival = static_cast<double>(scans.size()) * kReadBackGap;
    scans.push_back(r);
  }
  BenchSource source(scans, nullptr, SpanLog::kNoParent);
  const ServerReport report = stack->backend().run(source);
  std::size_t answered = 0;
  for (const Response& r : report.responses) {
    const std::size_t from = r.id * kReadBackN;
    const std::size_t to = std::min(want.size(), from + kReadBackN);
    bool same = !r.dropped && r.range_values.size() == to - from;
    for (std::size_t k = 0; same && k < r.range_values.size(); ++k)
      same = r.range_values[k] == want[from + k].value;
    if (!same) {
      out.fail("cold-started stack: read-back scan from entry " + std::to_string(from) +
               " returned " + std::to_string(r.range_values.size()) + " values that differ " +
               "from the " + std::to_string(to - from) + " acknowledged ones");
      return cs;
    }
    ++answered;
  }
  if (answered != scans.size())
    out.fail("cold-started stack answered " + std::to_string(answered) + " of " +
             std::to_string(scans.size()) + " read-back scans");
  return cs;
}

harmonia::shard::ShardedOptions sharded_options() {
  // Mirrors shard::ServingStack's sharded build (TopologySpec defaults).
  harmonia::shard::ShardedOptions o;
  o.index.fanout = harmonia::shard::TopologySpec{}.fanout;
  o.device_global_bytes = harmonia::shard::TopologySpec{}.device_global_bytes;
  return o;
}

/// A fresh sharded index over a pass's keys, for the layer replay and the
/// update re-application, which call the index's entry points directly.
std::unique_ptr<harmonia::shard::ShardedIndex> build_sharded(const std::vector<Key>& keys,
                                                             unsigned shards) {
  std::vector<harmonia::btree::Entry> entries;
  entries.reserve(keys.size());
  for (Key k : keys) entries.push_back({k, harmonia::btree::value_for_key(k)});
  return std::make_unique<harmonia::shard::ShardedIndex>(
      entries, harmonia::shard::ShardPlan::sample_balanced(keys, shards),
      sharded_options());
}

/// Host cost and counters of re-applied epochs.
struct ApplyTally {
  std::uint64_t ops = 0, patch_ops = 0, patch_bytes = 0, fine = 0, coarse_retries = 0;
  std::uint64_t moved = 0, failed = 0;
  double apply_host_s = 0, resync_host_s = 0;
};

/// Committed update requests by epoch, each epoch in arrival order.
using EpochUpdates = std::map<unsigned, std::vector<Request>>;

void add_epochs(const std::vector<Request>& stream, const ServerReport& report,
                EpochUpdates& out) {
  std::map<unsigned, std::vector<std::uint64_t>> ids;
  for (const Response& r : report.responses)
    if (r.kind == RequestKind::kUpdate && !r.dropped) ids[r.epoch].push_back(r.id);
  for (auto& [epoch, v] : ids) {
    std::sort(v.begin(), v.end());
    for (std::uint64_t id : v) out[epoch].push_back(stream[id]);
  }
}

/// Re-applies committed epochs to a fresh sharded index through one
/// serve::EpochUpdater per shard, in the workload's epoch mode: the
/// server's own apply (quiesce) or stage + commit (delta: patch, or a
/// compaction when gaps or the overlay run out). Each call is timed on
/// the host; stage() books as apply and commit() as resync, and a
/// quiesce apply(), which does both, books as apply.
class Reapplier {
 public:
  Reapplier(harmonia::shard::ShardedIndex& index, EpochMode mode)
      : index_(index), mode_(mode), clock_(index.num_shards(), 0.0) {
    harmonia::serve::EpochConfig cfg;
    cfg.mode = mode;
    for (unsigned s = 0; s < index.num_shards(); ++s)
      updaters_.push_back(
          std::make_unique<harmonia::serve::EpochUpdater>(*index.shard(s), link_, cfg));
  }

  /// Applies shard s's part of one committed epoch.
  void apply(unsigned s, const std::vector<Request>& epoch, ApplyTally& t) {
    harmonia::serve::EpochUpdater& u = *updaters_[s];
    for (const Request& r : epoch)
      if (index_.plan().shard_of(r.key) == s) u.buffer(r);
    if (u.buffered() == 0) return;
    t.ops += u.buffered();
    harmonia::serve::EpochUpdater::EpochResult e;
    const double t0 = wall_now();
    if (mode_ == EpochMode::kQuiesce) {
      e = u.apply(clock_[s], clock_[s]);
      t.apply_host_s += wall_now() - t0;
    } else {
      const double ready = u.stage(clock_[s]).ready;
      const double t1 = wall_now();
      e = u.commit(ready);
      t.apply_host_s += t1 - t0;
      t.resync_host_s += wall_now() - t1;
    }
    clock_[s] = e.finish;
    if (e.patch) {
      t.patch_ops += e.responses.size();
      // A patch epoch uploads only its queued leaf/overlay bytes; the
      // link model gives them back from the modeled upload seconds.
      t.patch_bytes += static_cast<std::uint64_t>(std::llround(
          (e.resync_seconds - link_.latency_seconds) * link_.gigabytes_per_second * 1e9));
    }
    t.fine += e.stats.fine_path_ops;
    t.coarse_retries += e.stats.coarse_retries;
    t.moved += e.stats.moved_slots;
    t.failed += e.stats.failed;
  }

 private:
  harmonia::shard::ShardedIndex& index_;
  EpochMode mode_;
  harmonia::TransferModel link_;
  std::vector<std::unique_ptr<harmonia::serve::EpochUpdater>> updaters_;
  /// Virtual clock of each shard's updater (epochs back to back).
  std::vector<double> clock_;
};

/// update_mops of a serving pass: the write probe's committed epochs
/// re-applied through Reapplier on a fresh index, timed over the epoch
/// calls alone: the update path's host rate without the serving
/// simulation or snapshot I/O, whose cost depends on where the snapshot
/// cadence falls.
double probe_update_mops(const Pass& p, const Spec& spec) {
  auto idx = build_sharded(p.keys, spec.shards);
  Reapplier reapply(*idx, spec.mode);
  EpochUpdates epochs;
  add_epochs(p.probe_stream, p.probe_report, epochs);
  ApplyTally t;
  for (const auto& [epoch, updates] : epochs)
    for (unsigned s = 0; s < spec.shards; ++s) reapply.apply(s, updates, t);
  return static_cast<double>(t.ops) / (t.apply_host_s + t.resync_host_s) / 1e6;
}

/// The modeled quantities a pass must reproduce exactly for its seed.
std::vector<double> modeled_digest(const Pass& p) {
  auto lat = latencies(p.report, false);
  return {percentile(lat, 50.0), percentile(lat, 99.0), p.report.makespan,
          p.report.busy_seconds, p.probe_report.makespan,
          static_cast<double>(p.report.epochs + p.probe_report.epochs)};
}

// ---- layer replay (traced run) ----

struct Replay {
  std::uint64_t batches = 0, queries = 0, mismatches = 0;
  double sort_s = 0, kernel_s = 0;
  KernelVariants variants;
  double psa_host_s = 0, search_host_s = 0, sort_bits_sum = 0;
  unsigned group = 0;
  std::uint64_t chunk_steps = 0, warp_levels = 0;
  KernelTally search;
  std::uint64_t scans = 0;
  double range_kernel_s = 0, range_host_s = 0;
  KernelTally range;
  ApplyTally update;
  double service_s() const { return sort_s + kernel_s + range_kernel_s; }
};

/// Feeds the pass's dispatched batches and committed epochs back through
/// the public index entry points on a fresh sharded index, in the order
/// each shard saw them: a batch on shard s that observed epoch e runs
/// after shard s applied epochs 1..e. Each call is timed on the host and
/// its modeled seconds and counters are kept.
Replay replay(const Pass& p, const Spec& spec, SpanLog* spans, std::int64_t parent) {
  using harmonia::HarmoniaIndex;
  Scope span(spans, "replay", parent);
  Replay rp;
  auto idx = build_sharded(p.keys, spec.shards);
  const auto& plan = idx->plan();
  Reapplier reapply(*idx, spec.mode);

  // Committed epochs of the measured stream, then of the probe.
  EpochUpdates epochs;
  add_epochs(p.stream, p.report, epochs);
  add_epochs(p.probe_stream, p.probe_report, epochs);
  std::vector<unsigned> applied(spec.shards, 0);
  const auto catch_up = [&](unsigned s, unsigned epoch) {
    for (auto it = epochs.upper_bound(applied[s]); it != epochs.end() && it->first <= epoch;
         ++it) {
      Scope u(spans, "replay.update", span.id());
      reapply.apply(s, it->second, rp.update);
    }
    applied[s] = std::max(applied[s], epoch);
  };

  harmonia::QueryOptions ref;
  ref.psa = harmonia::PsaMode::kPartial;
  ref.auto_ntg = false;
  ref.group_size = p.knobs.first;
  ref.psa_override_bits = p.knobs.second;

  const auto& rs = p.report.responses;
  for (std::size_t i = 0; i < rs.size();) {
    std::size_t j = i + 1;
    while (j < rs.size() && rs[j].kind == rs[i].kind && rs[j].dispatch == rs[i].dispatch &&
           rs[j].completion == rs[i].completion && rs[j].dropped == rs[i].dropped)
      ++j;
    if (rs[i].dropped || !is_query(rs[i].kind)) {
      i = j;
      continue;
    }
    // One dispatched batch; split by owning shard (a batch is per shard,
    // except scans whose coverage straddles — replayed on their first shard).
    std::map<unsigned, std::vector<std::size_t>> by_shard;
    for (std::size_t k = i; k < j; ++k)
      by_shard[plan.shard_of(p.stream[rs[k].id].key)].push_back(k);
    for (const auto& [s, members] : by_shard) {
      catch_up(s, rs[i].epoch);
      HarmoniaIndex& ix = *idx->shard(s);
      std::vector<Key> keys;
      for (std::size_t k : members) keys.push_back(p.stream[rs[k].id].key);
      if (rs[i].kind == RequestKind::kPoint) {
        ++rp.batches;
        rp.queries += keys.size();
        {
          Scope ps(spans, "replay.psa", span.id());
          const double t0 = wall_now();
          const auto plan_psa =
              harmonia::psa_prepare(keys, ix.tree().num_keys(), ix.device().spec(),
                                    harmonia::PsaMode::kPartial, p.knobs.second);
          rp.psa_host_s += wall_now() - t0;
          rp.sort_bits_sum += plan_psa.sorted_bits;
        }
        HarmoniaIndex::QueryResult r;
        {
          Scope ss(spans, "replay.search", span.id());
          const double t0 = wall_now();
          r = ix.search(keys, ref);
          rp.search_host_s += wall_now() - t0;
        }
        for (std::size_t k = 0; k < members.size(); ++k)
          rp.mismatches += r.values[k] != rs[members[k]].value;
        rp.sort_s += r.sort_seconds;
        rp.kernel_s += r.kernel_seconds;
        rp.group = r.group_size_used;
        rp.chunk_steps += r.search.chunk_steps;
        rp.warp_levels += r.search.warps * ix.tree().height();
        rp.search.add(r.search.metrics);
        Scope vs(spans, "replay.variants", span.id());
        rp.variants.add(ix, keys, ref);
      } else {
        Scope rs_span(spans, "replay.range", span.id());
        std::vector<std::uint32_t> ns(keys.size(), kScanN);
        const double t0 = wall_now();
        const auto r = ix.scan_device(keys, ns);
        rp.range_host_s += wall_now() - t0;
        rp.scans += keys.size();
        rp.range_kernel_s += r.kernel_seconds;
        rp.range.add(r.metrics);
      }
    }
    i = j;
  }
  for (unsigned s = 0; s < spec.shards; ++s) catch_up(s, ~0u);
  return rp;
}

/// Per-request identity, from two records: queue wait (the trace
/// recorder's dispatch stamp minus the generated arrival) plus batch
/// service (the recorder's reply stamp minus its dispatch stamp) must
/// equal the latency the Response reports. A scan split across shards
/// dispatches as sub-requests (named in its "sub=<id>" scatter stamps)
/// and waits until the last one starts. Counts the replies that break
/// the identity, a missing stamp included.
std::uint64_t identity_violations(const Pass& p, const harmonia::obs::TraceRecorder& trace) {
  using harmonia::obs::Stage;
  std::vector<double> dispatch(p.stream.size(), NAN), reply(p.stream.size(), NAN);
  std::unordered_map<std::uint64_t, std::uint64_t> parent_of;
  const auto& events = trace.events();
  for (std::size_t i = 0; i < p.measured_events; ++i) {
    const auto& e = events[i];
    if (e.stage == Stage::kShardScatter && e.note.starts_with("sub=")) {
      parent_of[std::stoull(e.note.substr(4))] = e.request_id;
      continue;
    }
    std::uint64_t id = e.request_id;
    if (const auto it = parent_of.find(id); it != parent_of.end()) id = it->second;
    if (id >= p.stream.size()) continue;
    if (e.stage == Stage::kDispatch) {
      double& d = dispatch[id];
      d = std::isnan(d) ? e.at : std::max(d, e.at);
    } else if (e.stage == Stage::kReply && id == e.request_id) {
      reply[id] = e.at;
    }
  }
  std::uint64_t bad = 0;
  for (const Response& r : p.report.responses) {
    if (r.dropped) continue;
    const double queue_wait = dispatch[r.id] - p.stream[r.id].arrival;
    const double service = reply[r.id] - dispatch[r.id];
    bad += !(std::abs(queue_wait + service - r.latency()) <= 1e-12 * std::max(1.0, r.latency()));
  }
  return bad;
}

void print_pass(const char* what, const Pass& p) {
  auto lat = latencies(p.report, false);
  const double n = static_cast<double>(lat.size());
  std::printf("%s: %llu requests, p50 %.2f us, p99 %.2f us over %zu steady-window queries "
              "(%.0f samples beyond p99), %llu epochs, setup %.3f s, run %.3f s host\n",
              what, static_cast<unsigned long long>(p.report.arrivals),
              percentile(lat, 50.0) * 1e6, percentile(lat, 99.0) * 1e6, lat.size(), n * 0.01,
              static_cast<unsigned long long>(p.report.epochs), p.setup_s, p.run_s);
}

/// Host figures of one pass, kept after its replies are dropped.
struct PassTiming {
  double setup_s, kreq_per_s, update_mops, recovery_s;
};

/// Checks one pass's replies and its cold start, and times it.
PassTiming check_and_time(const Pass& p, const Spec& spec, std::uint64_t seed,
                          const fs::path& snap, Outcome& out) {
  const Oracle final_state = check_replies(p, out);
  const ColdStart cs =
      cold_start(spec, seed, snap, final_state, out, nullptr, SpanLog::kNoParent);
  // Without durable state a restart rebuilds the stack from its source
  // data, so the cold start is the host time of that build.
  return {p.setup_s, static_cast<double>(p.report.arrivals) / p.run_s / 1e3,
          probe_update_mops(p, spec), cs.recovered ? cs.host_s : p.build_s};
}

std::vector<Metric> end_to_end(const Pass& first, const std::vector<PassTiming>& passes,
                               double knee, double rss_mb) {
  std::vector<double> setup, kreq, mops, recovery;
  for (const PassTiming& t : passes) {
    setup.push_back(t.setup_s);
    kreq.push_back(t.kreq_per_s);
    mops.push_back(t.update_mops);
    recovery.push_back(t.recovery_s);
  }
  auto lat = latencies(first.report, false);
  // Update visibility: the workload's own writes; the read workload has
  // none, so its write probe stands in.
  auto vis = latencies(first.report, true);
  if (vis.empty()) vis = latencies(first.probe_report, true);
  return {
      {"setup_s", "s", median(setup)},
      {"host_kreq_per_s", "kreq/s", median(kreq)},
      {"peak_rss_mb", "MB", rss_mb},
      {"p50_us", "us", percentile(lat, 50.0) * 1e6},
      {"p99_us", "us", percentile(lat, 99.0) * 1e6},
      {"max_rate_mqs", "Mq/s", knee},
      {"throughput_mqs", "Mq/s", first.report.service_rate() / 1e6},
      {"update_visible_p99_us", "us", percentile(vis, 99.0) * 1e6},
      {"update_mops", "Mops/s", median(mops)},
      {"recovery_s", "s", median(recovery)},
  };
}

std::vector<Metric> per_layer(const Spec& spec, const Pass& p, const Replay& rp,
                              const ColdStart& cs, double overhead) {
  const ServerReport& r = p.report;
  const ServerReport& pr = p.probe_report;
  std::vector<double> qwait, service;
  std::uint64_t scans = 0;
  for (std::size_t i = 0; i < r.responses.size(); ++i) {
    const Response& x = r.responses[i];
    if (x.dropped || !is_query(x.kind)) continue;
    scans += x.kind == RequestKind::kScan;
    qwait.push_back(x.queue_delay());
    if (i == 0 || r.responses[i - 1].dispatch != x.dispatch ||
        r.responses[i - 1].completion != x.completion)
      service.push_back(x.completion - x.dispatch);
  }
  double max_q = 0, sum_q = 0;
  for (auto q : r.shard_queries) {
    max_q = std::max(max_q, static_cast<double>(q));
    sum_q += static_cast<double>(q);
  }
  const double mean_q = sum_q / static_cast<double>(std::max<std::size_t>(1, r.shard_queries.size()));
  const double epochs = static_cast<double>(r.epochs + pr.epochs);
  const double q = static_cast<double>(rp.queries);
  const double live_bytes =
      static_cast<double>(p.keys.size()) * 2.0 * sizeof(Key);
  return {
      {"queries.stream_gen_s", "s", p.stream_gen_s},
      {"shard.route_imbalance", "ratio", ratio(max_q, mean_q)},
      {"shard.scan_fanout_frac", "ratio", ratio(static_cast<double>(r.split_scans), static_cast<double>(scans))},
      {"shard.barrier_wait_ms", "ms", (r.barrier_wait_seconds + pr.barrier_wait_seconds) * 1e3},
      {"serve.queue_wait_p50_us", "us", percentile(qwait, 50.0) * 1e6},
      {"serve.queue_wait_p99_us", "us", percentile(qwait, 99.0) * 1e6},
      {"serve.batch_service_p99_us", "us", percentile(service, 99.0) * 1e6},
      {"serve.batch_size_mean", "count", r.batch_size.mean()},
      {"serve.device_busy_frac", "ratio", ratio(r.busy_seconds, r.makespan * spec.shards)},
      {"serve.service_rate_mqs", "Mq/s", r.service_rate() / 1e6},
      {"serve.run_host_s", "s", p.run_s},
      {"epoch.count", "count", epochs},
      {"epoch.patch_frac", "ratio", ratio(static_cast<double>(r.patch_epochs + pr.patch_epochs), epochs)},
      {"epoch.build_ms", "ms", (r.epoch_build_seconds + pr.epoch_build_seconds) * 1e3},
      {"epoch.upload_ms", "ms", (r.epoch_upload_seconds + pr.epoch_upload_seconds) * 1e3},
      {"epoch.swap_wait_ms", "ms", (r.epoch_swap_wait_seconds + pr.epoch_swap_wait_seconds) * 1e3},
      {"epoch.stall_ms", "ms", (r.epoch_stall_seconds + pr.epoch_stall_seconds) * 1e3},
      {"psa.sort_bits", "bits", ratio(rp.sort_bits_sum, static_cast<double>(rp.batches))},
      {"psa.sort_share", "ratio", ratio(rp.sort_s, rp.sort_s + rp.kernel_s)},
      {"psa.host_ns_per_key", "ns", ratio(rp.psa_host_s * 1e9, q)},
      {"psa.kernel_gain", "ratio", rp.batches ? rp.variants.psa_gain() : 0.0},
      {"ntg.kernel_gain", "ratio", rp.batches ? rp.variants.ntg_gain() : 0.0},
      {"ntg.group_size", "lanes", static_cast<double>(rp.group)},
      {"ntg.steps_per_warp_level", "count", ratio(static_cast<double>(rp.chunk_steps), static_cast<double>(rp.warp_levels))},
      {"search.kernel_modeled_s", "s", rp.kernel_s},
      {"search.tx_per_query", "count", ratio(static_cast<double>(rp.search.tx), q)},
      {"search.dram_tx_per_query", "count", ratio(static_cast<double>(rp.search.dram), q)},
      {"search.warp_coherence", "ratio", ratio(static_cast<double>(rp.search.coherent), static_cast<double>(rp.search.steps))},
      {"search.mem_divergence", "ratio", ratio(static_cast<double>(rp.search.divergent), static_cast<double>(rp.search.loads))},
      {"search.host_ns_per_query", "ns", ratio(rp.search_host_s * 1e9, q)},
      {"gpusim.readonly_hit_rate", "ratio", ratio(static_cast<double>(rp.search.readonly), static_cast<double>(rp.search.tx))},
      {"gpusim.l2_hit_rate", "ratio", ratio(static_cast<double>(rp.search.l2), static_cast<double>(rp.search.l2 + rp.search.dram))},
      {"gpusim.const_hits_per_query", "count", ratio(static_cast<double>(rp.search.constant), q)},
      {"range.kernel_modeled_s", "s", rp.range_kernel_s},
      {"range.tx_per_scan", "count", ratio(static_cast<double>(rp.range.tx), static_cast<double>(rp.scans))},
      {"range.host_ns_per_scan", "ns", ratio(rp.range_host_s * 1e9, static_cast<double>(rp.scans))},
      {"update.patch_absorbed_frac", "ratio", ratio(static_cast<double>(rp.update.patch_ops), static_cast<double>(rp.update.ops))},
      {"update.patch_bytes_per_op", "bytes", ratio(static_cast<double>(rp.update.patch_bytes), static_cast<double>(rp.update.patch_ops))},
      {"update.apply_host_s", "s", rp.update.apply_host_s},
      {"update.resync_host_s", "s", rp.update.resync_host_s},
      {"update.fine_path_frac", "ratio", ratio(static_cast<double>(rp.update.fine), static_cast<double>(rp.update.ops))},
      {"update.coarse_retries", "count", static_cast<double>(rp.update.coarse_retries)},
      {"update.moved_slots_per_op", "count", ratio(static_cast<double>(rp.update.moved), static_cast<double>(rp.update.ops))},
      {"update.failed_ops", "count", static_cast<double>(rp.update.failed)},
      {"persist.log_batches", "count", static_cast<double>(r.log_batches + pr.log_batches)},
      {"persist.snapshots", "count", static_cast<double>(r.snapshots_written + pr.snapshots_written)},
      {"persist.disk_bytes_per_live_byte", "ratio", ratio(static_cast<double>(cs.disk_bytes), live_bytes)},
      {"persist.replayed_ops", "count", static_cast<double>(cs.replayed_ops)},
      {"persist.recover_host_s", "s", cs.host_s},
      {"persist.recover_modeled_s", "s", cs.modeled_s},
      {"obs.trace_overhead_frac", "ratio", overhead},
  };
}

}  // namespace

Outcome run_serving(const RunArgs& args) {
  const double start = wall_now();
  const Spec spec = spec_for(args.workload);
  const fs::path snap = args.work_dir / "snapshots";
  Outcome out;

  if (!args.trace) {
    const Pass first = serve_pass(spec, args.seed, spec.rate_mqs, spec.requests, snap, true, nullptr);
    // Peak RSS of serving: the first pass's build, stream, serve and write
    // probe. The cold start (a restart is a new process), the reply check
    // and the knee probes' longer streams come after.
    const double rss_mb = peak_rss_mb();
    const std::uint64_t fp = fnv1a(first.stream.data(), first.stream.size() * sizeof(Request));
    std::printf("workload %s seed %llu: stream fingerprint %016llx\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(fp));
    std::vector<PassTiming> passes{check_and_time(first, spec, args.seed, snap, out)};
    if (!out.correct) return out;
    const double knee = knee_rate(spec, args.seed, args.work_dir, meets_limit(first.report), out);
    const auto digest = modeled_digest(first);
    // Host metrics: more passes of the same seed until --seconds is used.
    while (out.correct && (passes.size() < kMinPasses || wall_now() - start < args.seconds)) {
      const Pass p = serve_pass(spec, args.seed, spec.rate_mqs, spec.requests, snap, true, nullptr);
      Outcome again;
      passes.push_back(check_and_time(p, spec, args.seed, snap, again));
      if (!again.correct) out.fail("pass " + std::to_string(passes.size() - 1) + ": " + again.mismatch);
      if (modeled_digest(p) != digest)
        out.fail("modeled results differ between passes of one seed");
    }
    fs::remove_all(snap);
    if (!out.correct) return out;
    out.metrics = end_to_end(first, passes, knee, rss_mb);
    print_pass("pass 0", first);
    const double failed_frac =
        static_cast<double>(out.failed) / static_cast<double>(std::max<std::uint64_t>(1, out.attempted));
    std::printf("passes %zu, failed_frac %.6f (%llu of %llu)\n", passes.size(), failed_frac,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    for (const Metric& m : out.metrics)
      std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    return out;
  }

  // Traced run: pairs of (untraced, traced) passes; the first traced pass
  // is reply-checked, replayed layer by layer and cold-started.
  std::vector<double> plain_wall, traced_wall;
  SpanLog spans;
  harmonia::obs::MetricsRegistry registry;
  harmonia::obs::TraceRecorder recorder;
  Pass traced;
  const fs::path traced_snap = args.work_dir / "traced-snapshots";
  while (plain_wall.empty() || wall_now() - start < args.seconds) {
    plain_wall.push_back(serve_pass(spec, args.seed, spec.rate_mqs, spec.requests, snap, true, nullptr).wall_s);
    const bool first = traced_wall.empty();
    SpanLog scratch;
    harmonia::obs::MetricsRegistry scratch_registry;
    harmonia::obs::TraceRecorder scratch_recorder;
    Pass p = serve_pass(spec, args.seed, spec.rate_mqs, spec.requests, snap, true, first ? &spans : &scratch,
                        first ? harmonia::obs::Observer{&registry, &recorder}
                              : harmonia::obs::Observer{&scratch_registry, &scratch_recorder});
    traced_wall.push_back(p.wall_s);
    if (first) {
      traced = std::move(p);
      // The first traced pass's directory is kept for the cold start.
      if (spec.persist) fs::rename(snap, traced_snap);
    }
  }
  const double overhead = median(traced_wall) / median(plain_wall) - 1.0;
  const std::int64_t root = spans.open("analysis", SpanLog::kNoParent);
  Oracle final_state = [&] {
    Scope s(&spans, "verify", root);
    return check_replies(traced, out);
  }();
  const ColdStart cs =
      cold_start(spec, args.seed, traced_snap, final_state, out, &spans, root);
  fs::remove_all(traced_snap);
  fs::remove_all(snap);
  if (const std::uint64_t violations = identity_violations(traced, recorder); violations != 0)
    out.fail(std::to_string(violations) + " replies break queue wait + batch service = " +
             "latency between the trace recorder and the responses");
  if (!out.correct) return out;
  const Replay rp = replay(traced, spec, &spans, root);
  spans.close(root);
  if (rp.mismatches != 0) {
    out.fail(std::to_string(rp.mismatches) + " replayed point replies differ from served ones");
    return out;
  }

  print_pass("traced pass", traced);
  std::printf("obs: %zu trace events recorded, metrics dump %zu bytes\n", recorder.size(),
              registry.prometheus_text().size());
  std::printf("identity queue wait (trace dispatch - arrival) + batch service (trace reply - "
              "dispatch) = Response latency holds for all %zu replies\n",
              traced.report.responses.size());
  const double busy = traced.report.busy_seconds;
  std::printf("replayed modeled service %.6f s (sort %.6f + kernel %.6f + range %.6f) vs "
              "ServerReport::busy_seconds %.6f s: residual %.6f s (%.1f%%; transfers, epoch "
              "stalls and cache state)\n",
              rp.service_s(), rp.sort_s, rp.kernel_s, rp.range_kernel_s, busy,
              busy - rp.service_s(), 100.0 * ratio(busy - rp.service_s(), busy));
  std::printf("replay: %llu point batches (every reply as served), %llu scans, %llu update ops\n",
              static_cast<unsigned long long>(rp.batches), static_cast<unsigned long long>(rp.scans),
              static_cast<unsigned long long>(rp.update.ops));
  print_layer_table(spans);
  std::printf("obs.trace_overhead_frac %.4f (median traced pass %.3f s / untraced %.3f s, %zu pairs)\n",
              overhead, median(traced_wall), median(plain_wall), traced_wall.size());
  spans.write_csv(args.work_dir / "spans.csv");
  out.metrics = per_layer(spec, traced, rp, cs, overhead);
  std::printf("\nper-layer metrics\n");
  for (const Metric& m : out.metrics)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  return out;
}

}  // namespace perfbench
