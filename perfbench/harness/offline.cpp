// offline_phase_uniform: the paper's phase-based use on one device.
//
// A 2^22-key HarmoniaIndex serves query phases of 2^17 uniform lookups
// (PSA partial, auto NTG) alternating with Fig. 14 update batches (5%
// inserts) applied through update_batch. This is where large-batch
// engine work (PSA sort modeling, level-wise traversal) shows; it
// bypasses serve, shard and persist.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "harmonia/psa.hpp"
#include "queries/workload.hpp"
#include "serve/epoch_updater.hpp"

namespace perfbench {
namespace {

using harmonia::HarmoniaIndex;
using harmonia::queries::UpdateOp;

constexpr unsigned kLog2Keys = 22;
constexpr std::uint64_t kPhaseQueries = 1u << 17;
/// Query phases; an update phase runs between each consecutive pair.
constexpr unsigned kQueryPhases = 8;
constexpr std::uint64_t kUpdateOps = 1u << 16;
constexpr double kInsertFraction = 0.05;
/// Leaves start full, the state repeated update phases leave them in:
/// every insert then takes Algorithm 1's coarse path and splits a leaf,
/// the cost Fig. 14 measures. With gapped leaves a 2^16-op batch would
/// never leave the fine path.
constexpr double kFillFactor = 1.0;
/// Query phases the layer replay re-runs (each under three variants).
constexpr unsigned kReplayPhases = 2;
/// Algorithm-1 apply threads. With full leaves every insert takes the
/// serialized coarse path, so four threads measured the same update_mops
/// as one and were no steadier between runs; one thread is kept.
constexpr unsigned kApplyThreads = 1;
constexpr int kMinRounds = 3;

/// One full schedule: build, then Q U Q U ... Q.
struct Round {
  double setup_s = 0.0, stream_gen_s = 0.0, wall_s = 0.0;
  /// Host wall of building the index from its entries (keys included).
  double build_s = 0.0;
  double query_host_s = 0.0;
  /// Lookups simulated per host second, per query phase.
  std::vector<double> phase_kreq;
  /// Modeled sort + kernel seconds of each query phase.
  std::vector<double> phase_s;
  /// Modeled seconds until each update phase is visible: Algorithm-1
  /// apply at the serving layer's per-op CPU charge, plus the image
  /// re-upload over the default PCIe link.
  std::vector<double> visible_s;
  double sort_s = 0.0, kernel_s = 0.0, sort_bits_sum = 0.0;
  std::uint64_t queries = 0, chunk_steps = 0, warp_levels = 0;
  unsigned group = 0;
  KernelTally search;
  std::uint64_t ops = 0, fine = 0, coarse_retries = 0, moved = 0, failed = 0;
  double apply_s = 0.0, resync_s = 0.0;
  /// Fig. 14 rate of each update phase: ops / (apply + rebuild + resync).
  std::vector<double> phase_mops;

};

/// Phase inputs, all generated from the seed before the first query.
struct Inputs {
  std::vector<Key> keys;
  std::vector<std::vector<Key>> queries;
  std::vector<std::vector<UpdateOp>> updates;
};

/// Runs the schedule; checks every query phase against the oracle after
/// the update phases before it. Non-null out-parameters receive the
/// inputs, the device and the final index, for the layer replay.
Round run_round(std::uint64_t seed, Outcome& out, SpanLog* spans, Inputs* inputs_out,
                std::unique_ptr<harmonia::gpusim::Device>* device_out,
                std::unique_ptr<HarmoniaIndex>* index_out) {
  Round rd;
  Scope round(spans, "round");
  const double t0 = wall_now();
  Inputs in;
  auto device = std::make_unique<harmonia::gpusim::Device>(harmonia::gpusim::titan_v());
  std::unique_ptr<HarmoniaIndex> idx;
  {
    Scope s(spans, "setup.index_build", round.id());
    in.keys = harmonia::queries::make_tree_keys(1ULL << kLog2Keys, seed);
    std::vector<harmonia::btree::Entry> entries;
    entries.reserve(in.keys.size());
    for (Key k : in.keys) entries.push_back({k, harmonia::btree::value_for_key(k)});
    idx = std::make_unique<HarmoniaIndex>(
        HarmoniaIndex::build(*device, entries, {.fill_factor = kFillFactor}));
    rd.build_s = wall_now() - t0;
  }
  {
    Scope s(spans, "queries.stream_gen", round.id());
    const double g0 = wall_now();
    for (unsigned p = 0; p < kQueryPhases; ++p)
      in.queries.push_back(harmonia::queries::make_queries(
          in.keys, kPhaseQueries, harmonia::queries::Distribution::kUniform, derive(seed, 10 + p)));
    for (unsigned p = 0; p + 1 < kQueryPhases; ++p)
      in.updates.push_back(harmonia::queries::make_update_batch(
          in.keys, {.size = kUpdateOps, .insert_fraction = kInsertFraction,
                    .delete_fraction = 0.0, .seed = derive(seed, 100 + p)}));
    rd.stream_gen_s = wall_now() - g0;
  }
  std::unique_ptr<Oracle> oracle;
  const harmonia::TransferModel link;
  const double seconds_per_op = harmonia::serve::EpochConfig{}.seconds_per_op;
  for (unsigned p = 0; p < kQueryPhases; ++p) {
    HarmoniaIndex::QueryResult r;
    {
      Scope s(spans, "search.phase", round.id());
      const double q0 = wall_now();
      r = idx->search(in.queries[p]);
      const double q_s = wall_now() - q0;
      rd.query_host_s += q_s;
      rd.phase_kreq.push_back(static_cast<double>(in.queries[p].size()) / q_s / 1e3);
    }
    if (p == 0) {
      rd.setup_s = wall_now() - t0;
      oracle = std::make_unique<Oracle>(in.keys);
    }
    {
      Scope s(spans, "verify", round.id());
      for (std::size_t i = 0; i < r.values.size() && out.correct; ++i) {
        ++out.attempted;
        const Value want = oracle->get(in.queries[p][i]).value_or(harmonia::kNotFound);
        if (r.values[i] != want)
          out.fail("query phase " + std::to_string(p) + " lookup " + std::to_string(i) +
                   " returned " + std::to_string(r.values[i]) + ", expected " +
                   std::to_string(want));
      }
    }
    rd.phase_s.push_back(r.total_seconds());
    rd.sort_s += r.sort_seconds;
    rd.kernel_s += r.kernel_seconds;
    rd.sort_bits_sum += r.sorted_bits;
    rd.queries += r.values.size();
    rd.group = r.group_size_used;
    rd.chunk_steps += r.search.chunk_steps;
    rd.warp_levels += r.search.warps * idx->tree().height();
    rd.search.add(r.search.metrics);
    if (p + 1 == kQueryPhases) break;

    const auto& ops = in.updates[p];
    harmonia::UpdateStats st;
    {
      Scope s(spans, "update.phase", round.id());
      st = idx->update_batch(ops, kApplyThreads);
    }
    out.attempted += ops.size();
    oracle->apply(ops);
    rd.ops += ops.size();
    rd.apply_s += st.apply_seconds + st.rebuild_seconds;
    rd.resync_s += idx->last_sync_seconds();
    rd.phase_mops.push_back(static_cast<double>(ops.size()) /
                            (st.apply_seconds + st.rebuild_seconds + idx->last_sync_seconds()) /
                            1e6);
    rd.fine += st.fine_path_ops;
    rd.coarse_retries += st.coarse_retries;
    rd.moved += st.moved_slots;
    rd.failed += st.failed;
    rd.visible_s.push_back(static_cast<double>(ops.size()) * seconds_per_op +
                           harmonia::image_resync_seconds(idx->tree(), link));
  }
  rd.wall_s = wall_now() - t0;
  if (inputs_out) *inputs_out = std::move(in);
  if (device_out) *device_out = std::move(device);
  if (index_out) *index_out = std::move(idx);
  return rd;
}

std::vector<double> modeled_digest(const Round& rd) {
  std::vector<double> d = rd.phase_s;
  d.insert(d.end(), rd.visible_s.begin(), rd.visible_s.end());
  return d;
}

/// Layer replay of the query phases through psa_prepare and the kernel
/// variants on the final index.
struct Gains {
  double psa_host_s = 0.0;
  std::uint64_t keys = 0;
  KernelVariants variants;
};

Gains replay_gains(HarmoniaIndex& idx, const Inputs& in, unsigned group, SpanLog* spans) {
  Scope span(spans, "replay", SpanLog::kNoParent);
  Gains g;
  harmonia::QueryOptions ref;
  ref.auto_ntg = false;
  ref.group_size = group;  // the group the NTG model chose in the run
  for (unsigned p = 0; p < kReplayPhases; ++p) {
    const auto& batch = in.queries[p];
    {
      Scope s(spans, "replay.psa", span.id());
      const double t0 = wall_now();
      harmonia::psa_prepare(batch, idx.tree().num_keys(), idx.device().spec(),
                            harmonia::PsaMode::kPartial);
      g.psa_host_s += wall_now() - t0;
    }
    Scope s(spans, "replay.variants", span.id());
    g.keys += batch.size();
    g.variants.add(idx, batch, ref);
  }
  return g;
}

void print_round(const char* what, const Round& rd) {
  auto phases = rd.phase_s;
  std::printf("%s: %llu lookups in %zu phases, %llu update ops in %zu phases, phase p50 %.2f "
              "us, setup %.3f s, wall %.3f s\n",
              what, static_cast<unsigned long long>(rd.queries), rd.phase_s.size(),
              static_cast<unsigned long long>(rd.ops), rd.visible_s.size(),
              percentile(phases, 50.0) * 1e6, rd.setup_s, rd.wall_s);
}

}  // namespace

Outcome run_offline(const RunArgs& args) {
  const double start = wall_now();
  Outcome out;

  if (!args.trace) {
    std::vector<Round> rounds;
    Inputs inputs;
    rounds.push_back(run_round(args.seed, out, nullptr, &inputs, nullptr, nullptr));
    std::uint64_t fp = fnv1a(inputs.keys.data(), inputs.keys.size() * sizeof(Key));
    for (const auto& q : inputs.queries) fp = fnv1a(q.data(), q.size() * sizeof(Key), fp);
    std::printf("workload %s seed %llu: stream fingerprint %016llx\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), static_cast<unsigned long long>(fp));
    inputs = Inputs{};
    print_round("round 0", rounds.front());
    const auto digest = modeled_digest(rounds.front());
    while (out.correct && (rounds.size() < kMinRounds || wall_now() - start < args.seconds)) {
      Outcome again;
      rounds.push_back(run_round(args.seed, again, nullptr, nullptr, nullptr, nullptr));
      if (!again.correct) out.fail("round " + std::to_string(rounds.size() - 1) + ": " + again.mismatch);
      if (modeled_digest(rounds.back()) != digest)
        out.fail("modeled results differ between rounds of one seed");
    }
    if (!out.correct) return out;

    const Round& first = rounds.front();
    std::vector<double> setup, kreq, mops, rebuild;
    for (const Round& rd : rounds) {
      setup.push_back(rd.setup_s);
      rebuild.push_back(rd.build_s);
      kreq.insert(kreq.end(), rd.phase_kreq.begin(), rd.phase_kreq.end());
      mops.insert(mops.end(), rd.phase_mops.begin(), rd.phase_mops.end());
    }
    auto phases = first.phase_s;
    auto visible = first.visible_s;
    double device_s = 0.0;
    for (double s : first.phase_s) device_s += s;
    for (double s : first.visible_s) device_s += s;
    out.metrics = {
        {"setup_s", "s", median(setup)},
        {"host_kreq_per_s", "kreq/s", median(kreq)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        // Every lookup of a phase is answered when the phase's sort +
        // kernel finish, so a lookup's latency is its phase's time.
        {"p50_us", "us", percentile(phases, 50.0) * 1e6},
        {"p99_us", "us", percentile(phases, 99.0) * 1e6},
        // Sustained query rate of the whole schedule: lookups over the
        // modeled time of query phases plus update visibility.
        {"max_rate_mqs", "Mq/s", static_cast<double>(first.queries) / device_s / 1e6},
        {"throughput_mqs", "Mq/s", static_cast<double>(first.queries) / (first.sort_s + first.kernel_s) / 1e6},
        {"update_visible_p99_us", "us", percentile(visible, 99.0) * 1e6},
        {"update_mops", "Mops/s", median(mops)},
        // No durable state: a restart rebuilds the index from its entries.
        {"recovery_s", "s", median(rebuild)},
    };
    std::printf("rounds %zu, failed_frac 0 (%llu lookups and update ops checked)\n",
                rounds.size(), static_cast<unsigned long long>(out.attempted));
    for (const Metric& m : out.metrics)
      std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    return out;
  }

  // Traced run: pairs of (untraced, traced) rounds, then the layer replay
  // on the first traced round's final index.
  std::vector<double> plain_wall, traced_wall;
  SpanLog spans;
  Round traced;
  Inputs inputs;
  std::unique_ptr<harmonia::gpusim::Device> device;
  std::unique_ptr<HarmoniaIndex> index;
  while (plain_wall.empty() || wall_now() - start < args.seconds) {
    Outcome ignored;
    plain_wall.push_back(run_round(args.seed, ignored, nullptr, nullptr, nullptr, nullptr).wall_s);
    const bool first = traced_wall.empty();
    SpanLog scratch;
    Outcome check;
    Round rd = first ? run_round(args.seed, check, &spans, &inputs, &device, &index)
                     : run_round(args.seed, check, &scratch, nullptr, nullptr, nullptr);
    traced_wall.push_back(rd.wall_s);
    if (!check.correct) out.fail(check.mismatch);
    if (first) {
      traced = rd;
      out.attempted = check.attempted;
    }
    if (!out.correct) return out;
  }
  const Gains g = replay_gains(*index, inputs, traced.group, &spans);
  index.reset();
  device.reset();
  const double overhead = median(traced_wall) / median(plain_wall) - 1.0;

  print_round("traced round", traced);
  print_layer_table(spans);
  std::printf("obs.trace_overhead_frac %.4f (median traced round %.3f s / untraced %.3f s, %zu pairs)\n",
              overhead, median(traced_wall), median(plain_wall), traced_wall.size());
  spans.write_csv(args.work_dir / "spans.csv");

  const Round& r = traced;
  const double q = static_cast<double>(r.queries);
  const double ops = static_cast<double>(r.ops);
  // Layers this workload bypasses (shard, serve, epoch, range, the patch
  // path, persist) report 0.
  out.metrics = {
      {"queries.stream_gen_s", "s", r.stream_gen_s},
      {"shard.route_imbalance", "ratio", 0.0},
      {"shard.scan_fanout_frac", "ratio", 0.0},
      {"shard.barrier_wait_ms", "ms", 0.0},
      {"serve.queue_wait_p50_us", "us", 0.0},
      {"serve.queue_wait_p99_us", "us", 0.0},
      {"serve.batch_service_p99_us", "us", 0.0},
      {"serve.batch_size_mean", "count", 0.0},
      {"serve.device_busy_frac", "ratio", 0.0},
      {"serve.service_rate_mqs", "Mq/s", 0.0},
      {"serve.run_host_s", "s", 0.0},
      {"epoch.count", "count", 0.0},
      {"epoch.patch_frac", "ratio", 0.0},
      {"epoch.build_ms", "ms", 0.0},
      {"epoch.upload_ms", "ms", 0.0},
      {"epoch.swap_wait_ms", "ms", 0.0},
      {"epoch.stall_ms", "ms", 0.0},
      {"psa.sort_bits", "bits", ratio(r.sort_bits_sum, static_cast<double>(r.phase_s.size()))},
      {"psa.sort_share", "ratio", ratio(r.sort_s, r.sort_s + r.kernel_s)},
      {"psa.host_ns_per_key", "ns", ratio(g.psa_host_s * 1e9, static_cast<double>(g.keys))},
      {"psa.kernel_gain", "ratio", g.variants.psa_gain()},
      {"ntg.kernel_gain", "ratio", g.variants.ntg_gain()},
      {"ntg.group_size", "lanes", static_cast<double>(r.group)},
      {"ntg.steps_per_warp_level", "count", ratio(static_cast<double>(r.chunk_steps), static_cast<double>(r.warp_levels))},
      {"search.kernel_modeled_s", "s", r.kernel_s},
      {"search.tx_per_query", "count", ratio(static_cast<double>(r.search.tx), q)},
      {"search.dram_tx_per_query", "count", ratio(static_cast<double>(r.search.dram), q)},
      {"search.warp_coherence", "ratio", ratio(static_cast<double>(r.search.coherent), static_cast<double>(r.search.steps))},
      {"search.mem_divergence", "ratio", ratio(static_cast<double>(r.search.divergent), static_cast<double>(r.search.loads))},
      {"search.host_ns_per_query", "ns", ratio(r.query_host_s * 1e9, q)},
      {"gpusim.readonly_hit_rate", "ratio", ratio(static_cast<double>(r.search.readonly), static_cast<double>(r.search.tx))},
      {"gpusim.l2_hit_rate", "ratio", ratio(static_cast<double>(r.search.l2), static_cast<double>(r.search.l2 + r.search.dram))},
      {"gpusim.const_hits_per_query", "count", ratio(static_cast<double>(r.search.constant), q)},
      {"range.kernel_modeled_s", "s", 0.0},
      {"range.tx_per_scan", "count", 0.0},
      {"range.host_ns_per_scan", "ns", 0.0},
      {"update.patch_absorbed_frac", "ratio", 0.0},
      {"update.patch_bytes_per_op", "bytes", 0.0},
      {"update.apply_host_s", "s", r.apply_s},
      {"update.resync_host_s", "s", r.resync_s},
      {"update.fine_path_frac", "ratio", ratio(static_cast<double>(r.fine), ops)},
      {"update.coarse_retries", "count", static_cast<double>(r.coarse_retries)},
      {"update.moved_slots_per_op", "count", ratio(static_cast<double>(r.moved), ops)},
      {"update.failed_ops", "count", static_cast<double>(r.failed)},
      {"persist.log_batches", "count", 0.0},
      {"persist.snapshots", "count", 0.0},
      {"persist.disk_bytes_per_live_byte", "ratio", 0.0},
      {"persist.replayed_ops", "count", 0.0},
      {"persist.recover_host_s", "s", 0.0},
      {"persist.recover_modeled_s", "s", 0.0},
      {"obs.trace_overhead_frac", "ratio", overhead},
  };
  std::printf("\nper-layer metrics\n");
  for (const Metric& m : out.metrics)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  return out;
}

}  // namespace perfbench
