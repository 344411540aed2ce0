// Golden modeled counters: a fixed-seed search batch and scan batch on the
// stock TITAN V preset must reproduce every KernelMetrics counter and the
// summed per-SM cycles exactly. The simulator's host-side implementation
// (coalescer, cache layout, memory reads) may change freely; the modeled
// clock may not. A change to these numbers is a change to the model and
// must be argued as one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "harmonia/index.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

struct Pinned {
  std::uint64_t warps, steps, coherent_steps, loads, divergent_loads, transactions,
      dram_transactions, l2_hits, readonly_hits, const_hits;
  std::uint64_t compute_cycles, mem_cycles, resident_warps;
  std::uint64_t max_sm_compute_cycles, max_sm_mem_cycles;
};

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

std::uint64_t max_of(const std::vector<std::uint64_t>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

Pinned pin(const gpusim::KernelMetrics& m) {
  return {m.warps,
          m.steps,
          m.coherent_steps,
          m.loads,
          m.divergent_loads,
          m.transactions,
          m.dram_transactions,
          m.l2_hits,
          m.readonly_hits,
          m.const_hits,
          sum(m.sm_compute_cycles),
          sum(m.sm_mem_cycles),
          sum(m.sm_resident_warps),
          max_of(m.sm_compute_cycles),
          max_of(m.sm_mem_cycles)};
}

void expect_pinned(const Pinned& got, const Pinned& want) {
  EXPECT_EQ(got.warps, want.warps);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.coherent_steps, want.coherent_steps);
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.divergent_loads, want.divergent_loads);
  EXPECT_EQ(got.transactions, want.transactions);
  EXPECT_EQ(got.dram_transactions, want.dram_transactions);
  EXPECT_EQ(got.l2_hits, want.l2_hits);
  EXPECT_EQ(got.readonly_hits, want.readonly_hits);
  EXPECT_EQ(got.const_hits, want.const_hits);
  EXPECT_EQ(got.compute_cycles, want.compute_cycles);
  EXPECT_EQ(got.mem_cycles, want.mem_cycles);
  EXPECT_EQ(got.resident_warps, want.resident_warps);
  EXPECT_EQ(got.max_sm_compute_cycles, want.max_sm_compute_cycles);
  EXPECT_EQ(got.max_sm_mem_cycles, want.max_sm_mem_cycles);
}

struct GoldenIndex {
  gpusim::Device dev{gpusim::titan_v()};
  std::vector<Key> keys = queries::make_tree_keys(1 << 16, 7);
  HarmoniaIndex index = HarmoniaIndex::build(dev, entries());

  std::vector<btree::Entry> entries() const {
    std::vector<btree::Entry> out;
    for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
    return out;
  }
};

TEST(ModeledGolden, SearchBatchCountersOnTitanV) {
  GoldenIndex g;
  const auto qs = queries::make_queries(g.keys, 1 << 14, queries::Distribution::kZipfian, 11);
  const auto result = g.index.search(qs);  // PSA partial, NTG auto
  EXPECT_EQ(result.group_size_used, 1u);
  EXPECT_EQ(result.sorted_bits, 12u);
  expect_pinned(pin(result.search.metrics), {512, 40107, 23610, 41131, 14560, 90197, 10508, 3058,
                                             75758, 873, 160428, 3676620, 512, 2356, 54926});
}

TEST(ModeledGolden, UnsortedWideGroupSearchCountersOnTitanV) {
  // Fanout-wide groups over unsorted queries: many lanes per line and
  // lines per load, so the coalescer's dedupe and ordering are exercised.
  GoldenIndex g;
  const auto qs = queries::make_queries(g.keys, 1 << 13, queries::Distribution::kUniform, 17);
  QueryOptions qopts;
  qopts.psa = PsaMode::kNone;
  qopts.auto_ntg = false;
  const auto result = g.index.search(qs, qopts);
  EXPECT_EQ(result.group_size_used, 32u);
  expect_pinned(pin(result.search.metrics), {8192, 53989, 24576, 70373, 29413, 118872, 10678,
                                             50730, 41240, 16224, 215956, 10095898, 8192, 2764,
                                             170044});
}

TEST(ModeledGolden, ScanBatchCountersOnTitanV) {
  GoldenIndex g;
  const auto los = queries::make_queries(g.keys, 512, queries::Distribution::kUniform, 13);
  std::vector<std::uint32_t> ns(los.size());
  for (std::size_t i = 0; i < ns.size(); ++i) ns[i] = static_cast<std::uint32_t>(i % 32 + 1);
  const auto result = g.index.scan_device(los, ns);
  EXPECT_EQ(result.total_results, 8448u);
  expect_pinned(pin(result.metrics), {512, 4130, 2413, 6918, 4249, 13760, 5603, 4560, 2698, 899,
                                      16520, 1710260, 512, 240, 27452});
}

TEST(ModeledGolden, MultiWaveSearchCountersOnTitanV) {
  // A batch large enough that the launch spans many waves of warps.
  GoldenIndex g;
  const auto qs = queries::make_queries(g.keys, 1 << 15, queries::Distribution::kUniform, 23);
  const auto result = g.index.search(qs);  // PSA partial, NTG auto
  EXPECT_EQ(result.search.warps, 4096u);
  expect_pinned(pin(result.search.metrics), {4096, 95684, 53330, 103876, 22531, 132346, 14978,
                                             30271, 79063, 8034, 382736, 11298936, 4096, 4936,
                                             156540});
}

class Fnv {
 public:
  template <typename T>
  void mix(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 1099511628211ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

TEST(ModeledGolden, TraceEventsOfOverlaySearchOnTitanV) {
  // Every trace event of a small search batch whose leaders first probe a
  // delta overlay, in recorded order, plus the events dropped at the cap.
  gpusim::Device dev{gpusim::titan_v()};
  const auto keys = queries::make_tree_keys(1 << 12, 29);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  IndexOptions opts;
  opts.fill_factor = 1.0;  // no gaps: fresh inserts land in the overlay
  opts.overlay_capacity = 64;
  auto index = HarmoniaIndex::build(dev, entries, opts);

  std::vector<queries::UpdateOp> ops;
  for (std::size_t i = 0; i < 24; ++i) {
    ops.push_back({queries::OpKind::kInsert, keys[i * 97] + 1, 1000 + i});
  }
  ops.push_back({queries::OpKind::kDelete, keys[5], 0});
  const auto pr = index.patch_update(ops);
  ASSERT_EQ(pr.absorbed, ops.size());
  index.commit_patch();
  ASSERT_GT(index.overlay_size(), 0u);

  auto qs = queries::make_queries(keys, 1000, queries::Distribution::kUniform, 31);
  for (const auto& op : ops) qs.push_back(op.key);
  QueryOptions qopts;
  qopts.auto_ntg = false;
  qopts.group_size = 4;
  dev.trace().enable(/*capacity=*/6000);
  const auto result = index.search(qs, qopts);
  EXPECT_EQ(result.values[1000], 1000u);      // overlay hit
  EXPECT_EQ(result.values.back(), kNotFound);  // tombstone

  Fnv h;
  for (const auto& e : dev.trace().events()) {
    h.mix(e.warp);
    h.mix(e.sm);
    h.mix(static_cast<std::uint8_t>(e.kind));
    h.mix(e.mask);
    h.mix(e.transactions);
    h.mix(static_cast<std::uint8_t>(e.served_by));
    h.mix(e.cycles);
  }
  EXPECT_EQ(dev.trace().events().size(), 6000u);
  EXPECT_EQ(dev.trace().dropped(), 1370u);
  EXPECT_EQ(h.value(), 8455061889265400611u);
}

}  // namespace
}  // namespace harmonia
