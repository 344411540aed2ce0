// Figure 14: batch update throughput (million ops/second), Harmonia's
// CPU-side Algorithm 1 + deferred movement vs HB+Tree's CPU batch update,
// for a 5% insert / 95% update mix (paper batch: 4096K ops).
//
// One batch is one wall-clock sample of a few hundred milliseconds, so a
// single run swings with whatever else the host is doing. Each cell runs
// kRepetitions times, each time on freshly built indexes, and reports the
// medians.
#include <algorithm>

#include "bench_common.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

constexpr int kRepetitions = 5;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  hb::add_common_flags(cli);
  cli.flag("batch", "log2 of the update batch size (0 = half the tree size, "
                    "matching the paper's 4096K batch on a 2^23-key tree)", "0")
      .flag("inserts", "insert fraction of the batch", "0.05")
      .flag("threads", "updater threads (Harmonia)", "4");
  if (!cli.parse(argc, argv)) return 1;
  auto cfg = hb::read_common(cli);
  // Batch updates hit leaves bulk-loaded at ~90% occupancy: repeated
  // update phases fill leaves over time, and this is the regime where
  // inserts actually split (the cost Figure 14 measures).
  if (!cli.has("fill")) cfg.fill = 0.9;
  const std::uint64_t batch_log = cli.get_uint("batch", 0);
  const double inserts = cli.get_double("inserts", 0.05);
  const auto threads = static_cast<unsigned>(cli.get_uint("threads", 4));

  hb::print_header("Batch update throughput: Harmonia vs HB+Tree",
                   "Figure 14 (5% inserts / 95% updates)");

  Table table({"log(tree size)", "HB+ (Mops/s)", "Harmonia (Mops/s)",
               "Harmonia/HB+ (%)", "aux nodes", "moved slots"});

  for (unsigned lg : cfg.size_logs) {
    const std::uint64_t size = 1ULL << lg;
    const auto keys = queries::make_tree_keys(size, cfg.seed);
    const auto entries = hb::entries_for(keys);

    queries::BatchSpec spec;
    spec.size = batch_log != 0 ? (1ULL << batch_log) : size / 2;
    spec.insert_fraction = inserts;
    spec.seed = cfg.seed + 2;
    const auto ops = queries::make_update_batch(keys, spec);

    // The two systems alternate within a repetition, so drift on the
    // host reaches both columns alike; the ratio is the median of the
    // per-repetition ratios.
    std::vector<double> hb_tp, h_tp, ratio;
    UpdateStats h_stats;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      gpusim::Device dev_b(hb::bench_spec());
      auto hb_idx = hbtree::HBTreeIndex::build(dev_b, entries, cfg.fanout, cfg.fill);
      hb_tp.push_back(hb_idx.update_batch(ops).ops_per_second());

      gpusim::Device dev_h(hb::bench_spec());
      auto h_idx = HarmoniaIndex::build(dev_h, entries,
                                        {.fanout = cfg.fanout, .fill_factor = cfg.fill});
      h_stats = h_idx.update_batch(ops, threads);
      h_tp.push_back(
          static_cast<double>(h_stats.total_ops()) /
          (h_stats.apply_seconds + h_stats.rebuild_seconds + h_idx.last_sync_seconds()));
      ratio.push_back(h_tp.back() / hb_tp.back());
    }

    // aux nodes and moved slots are the same in every repetition.
    table.add(lg, median(hb_tp) / 1e6, median(h_tp) / 1e6, 100.0 * median(ratio),
              h_stats.aux_nodes, h_stats.moved_slots);
  }
  hb::emit(cli, table);
  std::cout << "\nmedians of " << kRepetitions << " repetitions, each on fresh indexes\n"
            << "paper: Harmonia achieves ~70% of HB+Tree's update throughput\n";
  return 0;
}
