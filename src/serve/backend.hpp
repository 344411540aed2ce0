// serve::Backend — the one serving interface over any topology.
//
// Backend is a template method: the base class owns the deterministic
// virtual-clock event loop — next event is the earliest of (arrival,
// batch trigger, epoch trigger, staged image swap), with fault/restore
// events cutting ahead of same-instant work — and the engine supplies
// the hooks (submit a query, dispatch the most urgent batch, begin/commit
// an epoch, inject faults, drain). shard::ShardedServer is the one
// engine; a single-device topology is its 1-shard case.
//
// Callers hold a Backend&, run a stream, and read one ServerReport. See
// the migration note in docs/serving.md.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include <array>

#include "common/stats.hpp"
#include "fault/injector.hpp"
#include "obs/observer.hpp"
#include "qos/priority.hpp"
#include "serve/request.hpp"
#include "serve/tunables.hpp"
#include "serve/workload.hpp"

namespace harmonia::serve {

struct ServerReport {
  /// Every request's outcome (including drops), in service order.
  std::vector<Response> responses;

  /// Seconds, over completed (non-dropped) queries.
  Summary latency;
  Summary queue_delay;
  /// Requests per dispatched query batch.
  Summary batch_size;
  /// Scheduler depth sampled at each query admission attempt.
  Summary queue_depth;

  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;  // non-dropped queries served
  /// Admitted queries later answered `dropped` by a fault mitigation
  /// (retry budget exhausted / degraded-mode backlog). Kept apart from
  /// `dropped` so admitted + dropped == arrivals holds under faults.
  std::uint64_t shed = 0;
  /// Update *requests* admitted into the epoch buffer (each produces one
  /// update response; distinct from updates_applied, which counts ops and
  /// excludes failed ones). Closes the admission identity below.
  std::uint64_t update_requests = 0;
  /// Admission rejects due to per-tenant token-bucket throttling (a
  /// subset of `dropped`: a throttled request is answered dropped, it is
  /// just dropped *before* the queue rather than by backpressure).
  std::uint64_t throttled = 0;
  std::uint64_t batches = 0;
  std::uint64_t epochs = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_failed = 0;

  /// Per-priority-class splits of the stream-level counters above
  /// (indexed by qos::index). Each array sums to its scalar counterpart;
  /// single-class streams put everything in gold. class_shed includes
  /// both fault shedding and QoS overload eviction.
  std::array<std::uint64_t, qos::kNumClasses> class_arrivals{};
  std::array<std::uint64_t, qos::kNumClasses> class_admitted{};
  std::array<std::uint64_t, qos::kNumClasses> class_dropped{};
  std::array<std::uint64_t, qos::kNumClasses> class_throttled{};
  std::array<std::uint64_t, qos::kNumClasses> class_completed{};
  std::array<std::uint64_t, qos::kNumClasses> class_shed{};
  std::array<std::uint64_t, qos::kNumClasses> class_update_requests{};
  /// Seconds over completed queries, split by class (class_latency[c]
  /// has exactly class_completed[c] samples).
  std::array<Summary, qos::kNumClasses> class_latency{};

  /// Virtual time of the last completion.
  double makespan = 0.0;
  /// Device-occupied time (batch service + epoch stalls).
  double busy_seconds = 0.0;

  /// Epoch-pipeline attribution (docs/serving.md#epoch-pipeline), summed
  /// over epochs: modeled CPU build (Algorithm-1 apply), PCIe image
  /// upload, staged-image wait for its swap boundary, and device serving
  /// time lost to epochs. Quiesce mode stalls every device for
  /// build+upload (stall > 0, swap wait 0); the double-buffered overlap
  /// mode pays only the swap (stall 0) — the E13 sweep plots the delta.
  double epoch_build_seconds = 0.0;
  double epoch_upload_seconds = 0.0;
  double epoch_swap_wait_seconds = 0.0;
  double epoch_stall_seconds = 0.0;

  /// Incremental-mode split of the epoch totals above: an epoch books as
  /// "patch" when it edited the committed image in place (every staged
  /// shard patched), as "compaction" when any shard rebuilt a full image
  /// — which includes all quiesce and overlap epochs. The pairs sum to
  /// epochs / epoch_build_seconds / epoch_upload_seconds exactly.
  std::uint64_t patch_epochs = 0;
  std::uint64_t compaction_epochs = 0;
  double epoch_patch_build_seconds = 0.0;
  double epoch_patch_upload_seconds = 0.0;
  double epoch_compaction_build_seconds = 0.0;
  double epoch_compaction_upload_seconds = 0.0;

  /// Durability tallies (zero when no durability domain is wired):
  /// write-ahead log appends and snapshot images written, summed over
  /// shards. Purely additive — no serving identity involves them.
  std::uint64_t log_batches = 0;
  std::uint64_t snapshots_written = 0;

  /// Injection/detection/mitigation tallies (all zero on fault-free runs).
  fault::FaultReport faults;

  // Per-shard extras (one entry per shard, a single device included).

  /// Query batches dispatched / queries served per shard.
  std::vector<std::uint64_t> shard_batches;
  std::vector<std::uint64_t> shard_queries;
  /// Per-shard admissions and drops, tallied exactly once at the routing
  /// point: a query counts toward the shard its routing starts at
  /// (points: the owner shard; ranges: the first shard of the span), so
  /// each vector sums to its stream-level counter. The schedulers' own
  /// admitted()/rejected() tallies cannot be aggregated here — they
  /// count every fan-out sub-request (double-counting straddling
  /// ranges) and never see all-or-nothing probe drops (omitting them).
  std::vector<std::uint64_t> shard_admitted;
  std::vector<std::uint64_t> shard_dropped;
  /// Range requests that fanned out across >1 shard.
  std::uint64_t split_ranges = 0;
  /// Scan requests whose [lo, n) coverage straddled >1 shard.
  std::uint64_t split_scans = 0;
  /// Device idle time summed over shards while quiesce epoch barriers
  /// gathered the slowest shard (0 in overlap mode — no barrier).
  double barrier_wait_seconds = 0.0;

  /// Replica-group extras (docs/sharding.md#replica-groups): batches per
  /// replica slot, flattened shard-major ([shard * K + replica]). Sums to
  /// `batches`, and each shard's K slots sum to its shard_batches entry.
  std::vector<std::uint64_t> replica_batches;

  /// Live-resharding extras (docs/sharding.md#live-resharding). The plan
  /// version starts at 1 and bumps once per committed migration, so
  /// plan_version == 1 + migrations.
  unsigned plan_version = 1;
  std::uint64_t migrations = 0;
  /// Keys moved across the split boundary, summed over migrations.
  std::uint64_t migrated_keys = 0;
  /// Modeled host CPU building the two post-split images / concurrent
  /// PCIe upload of the staged pair (slowest side per migration).
  double migration_build_seconds = 0.0;
  double migration_upload_seconds = 0.0;

  /// Completed queries per virtual second, end to end.
  double query_throughput() const {
    return makespan > 0.0 ? static_cast<double>(completed) / makespan : 0.0;
  }
  /// Completed queries per device-busy second: the capacity the batching
  /// achieved, independent of how hard the workload pushed.
  double service_rate() const {
    return busy_seconds > 0.0 ? static_cast<double>(completed) / busy_seconds : 0.0;
  }

  /// Accounting identities every fully-drained run must satisfy; run()
  /// asserts them before returning (two prior serving PRs each shipped a
  /// silent tally bug such an invariant would have tripped). At close
  /// nothing is in flight, so:
  ///   arrivals == admitted + dropped
  ///   admitted == completed + shed + update_requests
  ///   responses.size() == arrivals  (every request answered exactly once)
  /// per priority class (for each counter with a class_* split):
  ///   class_x[c] sums to x;  class_arrivals[c] == class_admitted[c] +
  ///   class_dropped[c];  class_admitted[c] == class_completed[c] +
  ///   class_shed[c] + class_update_requests[c];
  ///   class_latency[c].count() == class_completed[c];
  ///   class_throttled[c] <= class_dropped[c]
  /// and per shard:
  ///   sum(shard_admitted) + update_requests == admitted
  ///   sum(shard_dropped) == dropped
  ///   sum(shard_batches) == batches
  ///   sum(replica_batches) == batches, with each shard's K slots
  ///   summing to its shard_batches entry;  plan_version == 1 + migrations
  /// Throws ContractViolation on violation.
  void check_invariants() const;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Runs the stream to completion (drains all lanes, commits any staged
  /// epoch, applies leftover updates) and returns the aggregate report
  /// with its invariants checked.
  ServerReport run(RequestSource& source);
  /// Open-loop convenience: serve a pre-built, arrival-sorted stream.
  ServerReport run(std::span<const Request> requests);

  virtual unsigned num_shards() const = 0;

  /// The currently adopted runtime snapshot (docs/serving.md#autotuner).
  /// Inside a staged-epoch window this is the *target*: the image/PSA
  /// knobs may still be latched — effective_query_knobs() reports what
  /// the dispatch path is actually using.
  const Tunables& tunables() const { return tunables_; }

  /// Validates `t` against the construction-time options and adopts it.
  /// Scheduler knobs (max_batch/max_wait) take effect at the next batch
  /// formation, apply_threads at the next epoch trigger; the image/PSA
  /// knobs (group_size/sort_bits) install immediately when every shard
  /// serves one committed image, otherwise they latch and land at the
  /// epoch-swap boundary (the last shard's swap). Throws
  /// ContractViolation (nothing adopted) on an invalid snapshot.
  void apply_tunables(const Tunables& t, double now);

  /// The (group_size, sort_bits) pair dispatches are using right now —
  /// equals tunables()'s pair except while a snapshot is latched for a
  /// swap boundary. The swap stress tests pin that window.
  virtual std::pair<unsigned, unsigned> effective_query_knobs() const = 0;

 protected:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  /// Called once before the loop (size per-shard report vectors, ...).
  virtual void begin_run(ServerReport& report) = 0;

  /// Earliest instant a closed batch can start on a free device; kNever
  /// when every scheduler is idle.
  virtual double next_batch_time(double now) const = 0;
  /// Dispatches the most urgent ready batch at `now` (the instant
  /// next_batch_time returned).
  virtual void dispatch_ready_batch(double now, RequestSource& source,
                                    ServerReport& report) = 0;

  /// Routes one query arrival (updates never reach this hook — the loop
  /// buffers them via buffer_update). Accounts admitted/dropped itself.
  virtual void submit(const Request& r, RequestSource& source,
                      ServerReport& report) = 0;
  /// Buffers one update request toward the next epoch.
  virtual void buffer_update(const Request& r) = 0;

  /// Next epoch trigger; kNever when nothing is buffered (or, in overlap
  /// mode, while a staged epoch is still in flight).
  virtual double next_epoch_time(double now) const = 0;
  /// Quiesce+apply (kQuiesce) or start the staged build (kOverlap).
  virtual void epoch_begin(double now, RequestSource& source,
                           ServerReport& report) = 0;
  /// Next atomic image swap; kNever when no staged epoch is swap-ready.
  virtual double next_swap_time() const = 0;
  /// Commits (part of) a staged epoch at `now`, a batch boundary.
  virtual void epoch_commit(double now, RequestSource& source,
                            ServerReport& report) = 0;

  /// Fault hooks: arm times of the next injected fault / due restore.
  /// They cut ahead of same-instant work.
  virtual double next_fault_time() const = 0;
  virtual void handle_fault(double now, RequestSource& source,
                            ServerReport& report) = 0;
  virtual double next_restore_time() const = 0;
  virtual void handle_restore(double now, ServerReport& report) = 0;

  /// Stream exhausted with no armed trigger: flush remaining batches,
  /// commit any staged epoch, apply leftover updates as a last epoch.
  virtual void final_drain(double now, RequestSource& source,
                           ServerReport& report) = 0;
  /// After the loop: attach the fault report, export end-of-run gauges,
  /// assert internal state fully drained.
  virtual void finish_run(ServerReport& report) = 0;

  /// Wires the runtime-tunables surface from the (already validated)
  /// options: the initial snapshot, the optional controller, and the
  /// serve_tune_*_total counters. Subclass ctors call this once.
  void init_tuning(const ServeOptions& config);

  /// Subclass hook behind apply_tunables: validate `t` against the
  /// construction-time config (throw before touching anything), then
  /// install each knob at its safe point — scheduler knobs now,
  /// image/PSA knobs now or latched until the next swap boundary.
  virtual void install_tunables(const Tunables& t, double now) = 0;

  /// Books one controller decision: bumps the matching counter and
  /// annotates the trace ("tune <action> <note>"). kNone is silent.
  void note_tune(TuneAction action, const std::string& note, double now);

  /// The wired controller (null without one) — subclasses feed it
  /// re-profile observations at swap boundaries.
  TuneController* tuner() const { return tuner_; }

 private:
  void run_tune_tick(double now);

  TuneController* tuner_ = nullptr;
  Tunables tunables_;
  obs::Observer tune_obs_;
  obs::Counter* tune_applied_ = nullptr;
  obs::Counter* tune_vetoed_ = nullptr;
  obs::Counter* tune_rolled_back_ = nullptr;
};

}  // namespace harmonia::serve
