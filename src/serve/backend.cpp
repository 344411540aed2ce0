#include "serve/backend.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/expect.hpp"
#include "serve/options.hpp"

namespace harmonia::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}
}  // namespace

void ServerReport::check_invariants() const {
  HARMONIA_CHECK_MSG(arrivals == admitted + dropped,
                     "serving accounting broken: arrivals=" << arrivals
                         << " != admitted=" << admitted
                         << " + dropped=" << dropped);
  HARMONIA_CHECK_MSG(
      admitted == completed + shed + update_requests,
      "serving accounting broken: admitted=" << admitted
          << " != completed=" << completed << " + shed=" << shed
          << " + update_requests=" << update_requests);
  HARMONIA_CHECK_MSG(responses.size() == arrivals,
                     "serving accounting broken: " << responses.size()
                         << " responses for " << arrivals << " arrivals");
  HARMONIA_CHECK_MSG(latency.count() == completed,
                     "serving accounting broken: " << latency.count()
                         << " latency samples for " << completed
                         << " completions");

  // Per-class splits must reconcile with the stream-level counters and
  // satisfy the same admission identities class-by-class.
  const auto csum = [](const std::array<std::uint64_t, qos::kNumClasses>& a) {
    return std::accumulate(a.begin(), a.end(), std::uint64_t{0});
  };
  HARMONIA_CHECK_MSG(csum(class_arrivals) == arrivals,
                     "class accounting broken: class arrivals sum to "
                         << csum(class_arrivals) << " but arrivals=" << arrivals);
  HARMONIA_CHECK_MSG(csum(class_admitted) == admitted,
                     "class accounting broken: class admissions sum to "
                         << csum(class_admitted) << " but admitted=" << admitted);
  HARMONIA_CHECK_MSG(csum(class_dropped) == dropped,
                     "class accounting broken: class drops sum to "
                         << csum(class_dropped) << " but dropped=" << dropped);
  HARMONIA_CHECK_MSG(csum(class_throttled) == throttled,
                     "class accounting broken: class throttles sum to "
                         << csum(class_throttled) << " but throttled="
                         << throttled);
  HARMONIA_CHECK_MSG(csum(class_completed) == completed,
                     "class accounting broken: class completions sum to "
                         << csum(class_completed) << " but completed="
                         << completed);
  HARMONIA_CHECK_MSG(csum(class_shed) == shed,
                     "class accounting broken: class sheds sum to "
                         << csum(class_shed) << " but shed=" << shed);
  HARMONIA_CHECK_MSG(csum(class_update_requests) == update_requests,
                     "class accounting broken: class update requests sum to "
                         << csum(class_update_requests) << " but update_requests="
                         << update_requests);
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    const char* name = qos::to_string(qos::priority_at(c));
    HARMONIA_CHECK_MSG(
        class_arrivals[c] == class_admitted[c] + class_dropped[c],
        "class accounting broken (" << name << "): arrivals="
            << class_arrivals[c] << " != admitted=" << class_admitted[c]
            << " + dropped=" << class_dropped[c]);
    HARMONIA_CHECK_MSG(
        class_admitted[c] ==
            class_completed[c] + class_shed[c] + class_update_requests[c],
        "class accounting broken (" << name << "): admitted="
            << class_admitted[c] << " != completed=" << class_completed[c]
            << " + shed=" << class_shed[c] << " + update_requests="
            << class_update_requests[c]);
    HARMONIA_CHECK_MSG(class_throttled[c] <= class_dropped[c],
                       "class accounting broken (" << name << "): throttled="
                           << class_throttled[c] << " > dropped="
                           << class_dropped[c]);
    HARMONIA_CHECK_MSG(class_latency[c].count() == class_completed[c],
                       "class accounting broken (" << name << "): "
                           << class_latency[c].count()
                           << " latency samples for " << class_completed[c]
                           << " completions");
  }

  // Patch/compaction split: every epoch books into exactly one side, and
  // the per-side build/upload sums reassemble the totals (a relative
  // epsilon absorbs the different fp accumulation order).
  HARMONIA_CHECK_MSG(patch_epochs + compaction_epochs == epochs,
                     "epoch accounting broken: patch_epochs=" << patch_epochs
                         << " + compaction_epochs=" << compaction_epochs
                         << " != epochs=" << epochs);
  const auto close = [](double split, double total) {
    const double scale = std::max({std::abs(split), std::abs(total), 1.0});
    return std::abs(split - total) <= 1e-9 * scale;
  };
  HARMONIA_CHECK_MSG(
      close(epoch_patch_build_seconds + epoch_compaction_build_seconds,
            epoch_build_seconds),
      "epoch accounting broken: patch+compaction build seconds "
          << epoch_patch_build_seconds + epoch_compaction_build_seconds
          << " != epoch_build_seconds=" << epoch_build_seconds);
  HARMONIA_CHECK_MSG(
      close(epoch_patch_upload_seconds + epoch_compaction_upload_seconds,
            epoch_upload_seconds),
      "epoch accounting broken: patch+compaction upload seconds "
          << epoch_patch_upload_seconds + epoch_compaction_upload_seconds
          << " != epoch_upload_seconds=" << epoch_upload_seconds);

  HARMONIA_CHECK_MSG(
      sum(shard_admitted) + update_requests == admitted,
      "sharded accounting broken: per-shard admissions sum to "
          << sum(shard_admitted) << " + update_requests=" << update_requests
          << " but admitted=" << admitted);
  HARMONIA_CHECK_MSG(sum(shard_dropped) == dropped,
                     "sharded accounting broken: per-shard drops sum to "
                         << sum(shard_dropped) << " but dropped=" << dropped);
  HARMONIA_CHECK_MSG(sum(shard_batches) == batches,
                     "sharded accounting broken: per-shard batches sum to "
                         << sum(shard_batches) << " but batches=" << batches);
  if (!replica_batches.empty()) {
    HARMONIA_CHECK_MSG(
        sum(replica_batches) == batches,
        "replica accounting broken: per-replica batches sum to "
            << sum(replica_batches) << " but batches=" << batches);
    HARMONIA_CHECK_MSG(replica_batches.size() % shard_batches.size() == 0,
                       "replica accounting broken: " << replica_batches.size()
                           << " replica slots over " << shard_batches.size()
                           << " shards is not a whole group size");
    const std::size_t k = replica_batches.size() / shard_batches.size();
    for (std::size_t s = 0; s < shard_batches.size(); ++s) {
      std::uint64_t group = 0;
      for (std::size_t r = 0; r < k; ++r) group += replica_batches[s * k + r];
      HARMONIA_CHECK_MSG(group == shard_batches[s],
                         "replica accounting broken: shard " << s
                             << "'s group serves " << group
                             << " batches but shard_batches=" << shard_batches[s]);
    }
  }
  HARMONIA_CHECK_MSG(plan_version == 1 + migrations,
                     "reshard accounting broken: plan_version=" << plan_version
                         << " != 1 + migrations=" << migrations);
}

void Backend::init_tuning(const ServeOptions& config) {
  tuner_ = config.tuner;
  tunables_ = Tunables::from(config);
  tune_obs_ = config.obs;
  if (tune_obs_.metrics != nullptr) {
    obs::MetricsRegistry& m = *tune_obs_.metrics;
    tune_applied_ = &m.counter("serve_tune_applied_total");
    tune_vetoed_ = &m.counter("serve_tune_vetoed_total");
    tune_rolled_back_ = &m.counter("serve_tune_rolled_back_total");
  }
}

void Backend::note_tune(TuneAction action, const std::string& note, double now) {
  if (action == TuneAction::kNone) return;
  obs::Counter* c = action == TuneAction::kApply    ? tune_applied_
                    : action == TuneAction::kVeto ? tune_vetoed_
                                                  : tune_rolled_back_;
  if (c != nullptr) c->inc();
  if (tune_obs_.trace != nullptr) {
    tune_obs_.trace->annotate(now, obs::TraceRecorder::kNoShard,
                              std::string{"tune "} + to_string(action) +
                                  (note.empty() ? "" : " ") + note);
  }
}

void Backend::apply_tunables(const Tunables& t, double now) {
  // The subclass hook validates against its construction-time config and
  // throws before mutating anything; adoption happens only on success.
  install_tunables(t, now);
  tunables_ = t;
}

void Backend::run_tune_tick(double now) {
  TuneDecision d = tuner_->tick(now, tunables_);
  switch (d.action) {
    case TuneAction::kNone:
      return;
    case TuneAction::kVeto:
      note_tune(TuneAction::kVeto, d.note, now);
      return;
    case TuneAction::kApply:
    case TuneAction::kRollback:
      try {
        apply_tunables(d.target, now);
      } catch (const ContractViolation&) {
        // Guard rail: a proposal the runtime can't honor (e.g. a batch
        // size above the construction-time queue capacity) must not take
        // the server down — it becomes a veto the controller observes as
        // a move with no effect.
        note_tune(TuneAction::kVeto, d.note + " (rejected)", now);
        return;
      }
      note_tune(d.action, d.note, now);
      return;
  }
}

ServerReport Backend::run(RequestSource& source) {
  ServerReport report;
  begin_run(report);
  double now = 0.0;

  while (true) {
    const Request* next = source.peek();
    const double t_arrival = next ? next->arrival : kInf;

    // A batch dispatches when BOTH its trigger (size reached, or oldest
    // member hit the deadline) has fired AND its device is free. Until
    // then its members stay in the bounded queue — that is what turns
    // device saturation into backpressure at admission instead of an
    // unbounded in-flight backlog.
    const double t_batch = next_batch_time(now);
    const double t_epoch = next_epoch_time(now);
    const double t_swap = next_swap_time();

    if (t_arrival == kInf && t_batch == kInf && t_epoch == kInf &&
        t_swap == kInf) {
      // Stream exhausted and no armed trigger (possible only with
      // infinite deadlines): final drain — queries first, then any staged
      // epoch, then leftovers of the update buffer as a last epoch.
      final_drain(now, source, report);
      if (!source.peek()) break;  // on_complete may have injected arrivals
      continue;
    }

    // Fault events cut ahead of same-instant work: a shard lost at t is
    // fenced before anything else dispatches at t, and a due restore
    // rejoins its shard before new work routes around it.
    const double t_work = std::min(std::min(t_arrival, t_batch),
                                   std::min(t_epoch, t_swap));
    const double t_fault = next_fault_time();
    const double t_restore = next_restore_time();
    if (t_fault <= t_work && t_fault <= t_restore) {
      now = std::max(now, t_fault);
      handle_fault(now, source, report);
      continue;
    }
    if (t_restore <= t_work) {
      now = std::max(now, t_restore);
      handle_restore(now, report);
      continue;
    }

    // Controller ticks run strictly between work events (same-instant
    // work wins, so a decision lands at a batch-formation boundary) and
    // never once the stream has drained — an idle backend has nothing to
    // tune, and the loop above must reach final_drain.
    if (tuner_ != nullptr && tuner_->next_tick() < t_work) {
      now = std::max(now, tuner_->next_tick());
      run_tune_tick(now);
      continue;
    }

    // A due swap outranks same-instant work: the swap IS the batch
    // boundary, so a batch triggering at the same instant dispatches
    // against the fresh image.
    if (t_swap <= t_arrival && t_swap <= t_batch && t_swap <= t_epoch) {
      now = std::max(now, t_swap);
      epoch_commit(now, source, report);
    } else if (t_arrival <= t_batch && t_arrival <= t_epoch) {
      now = t_arrival;
      const Request r = source.pop();
      ++report.arrivals;
      ++report.class_arrivals[qos::index(r.klass)];
      if (r.kind == RequestKind::kUpdate) {
        ++report.admitted;
        ++report.update_requests;
        ++report.class_admitted[qos::index(r.klass)];
        ++report.class_update_requests[qos::index(r.klass)];
        buffer_update(r);  // size trigger fires via t_epoch next round
      } else {
        submit(r, source, report);
      }
    } else if (t_batch <= t_epoch) {
      now = t_batch;
      dispatch_ready_batch(now, source, report);
    } else {
      now = t_epoch;
      epoch_begin(now, source, report);
    }
  }

  finish_run(report);
  report.check_invariants();
  return report;
}

ServerReport Backend::run(std::span<const Request> requests) {
  VectorSource source(std::vector<Request>(requests.begin(), requests.end()));
  return run(source);
}

}  // namespace harmonia::serve
