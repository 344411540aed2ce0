// Golden deferred movement: a fixed sequence of batches (inserts that
// split leaves, deletes that empty whole leaves, update mixes) must leave
// the rebuilt tree's regions and the movement accounting exactly as
// pinned here. The rebuild's implementation may change freely; the tree
// it produces may not. The result must not depend on the apply thread
// count either, so every case runs at 1 and 4 threads against the same
// pinned values.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "btree/btree.hpp"
#include "harmonia/update.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

using queries::OpKind;
using queries::UpdateOp;

struct Pinned {
  std::uint64_t digest;
  std::uint64_t moved_slots;
  std::uint64_t aux_nodes;
  std::uint64_t num_keys;
};

template <typename T>
void fnv1a(std::uint64_t& h, std::span<const T> v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

void digest_tree(std::uint64_t& h, const HarmoniaTree& t) {
  std::vector<std::uint32_t> starts;
  for (unsigned l = 0; l < t.height(); ++l) starts.push_back(t.level_start(l));
  fnv1a(h, std::span<const std::uint32_t>(starts));
  fnv1a(h, t.key_region());
  fnv1a(h, t.value_region());
  fnv1a(h, t.prefix_sum());
}

std::vector<Key> live_keys(const HarmoniaTree& t) {
  std::vector<Key> keys;
  for (const auto& e : t.range(0, kPadKey - 1)) keys.push_back(e.key);
  return keys;
}

/// Deletes every key of the leaves at the given ordinals (merge path),
/// plus an update of each surviving neighbour's first key.
std::vector<UpdateOp> empty_leaves(const HarmoniaTree& t,
                                   std::initializer_list<std::uint32_t> ordinals) {
  std::vector<UpdateOp> ops;
  for (std::uint32_t li : ordinals) {
    const std::uint32_t leaf = t.first_leaf_index() + li;
    for (const auto& e : t.leaf_entries(leaf)) ops.push_back({OpKind::kDelete, e.key, 0});
    if (leaf + 1 < t.num_nodes()) {
      ops.push_back({OpKind::kUpdate, t.node_keys(leaf + 1)[0], 7});
    }
  }
  return ops;
}

Pinned run(unsigned fanout, double rebuild_fill, unsigned threads) {
  const std::uint64_t n = fanout == 8 ? 3000 : 20000;
  const auto keys = queries::make_tree_keys(n, 5);
  BatchUpdater updater(HarmoniaTree::from_btree(btree::make_tree(keys, fanout, 0.69)),
                       rebuild_fill);
  Pinned out{0xcbf29ce484222325ULL, 0, 0, 0};
  const auto apply = [&](const std::vector<UpdateOp>& ops) {
    const UpdateStats s = updater.apply(ops, threads);
    out.moved_slots += s.moved_slots;
    out.aux_nodes += s.aux_nodes;
    digest_tree(out.digest, updater.tree());
  };

  // Insert-heavy: many leaves overflow and split into aux chunks.
  apply(queries::make_update_batch(keys, {n / 2, 0.4, 0.0, 11}));
  // Whole leaves emptied: first, middle run, last (merges at both ends).
  const std::uint32_t leaves = updater.tree().num_leaves();
  apply(empty_leaves(updater.tree(),
                     {0, leaves / 3, leaves / 3 + 1, leaves / 3 + 2, leaves - 1}));
  // Updates with fresh inserts, then with deletes, against the live key
  // set. Inserts and deletes stay in separate batches: when both land on
  // one full leaf, whether it splits depends on which ran first, so a
  // mixed batch's layout (not its contents) would vary with threads.
  apply(queries::make_update_batch(live_keys(updater.tree()), {n / 4, 0.3, 0.0, 13}));
  apply(queries::make_update_batch(live_keys(updater.tree()), {n / 3, 0.0, 0.6, 17}));

  updater.tree().validate();
  out.num_keys = updater.tree().num_keys();
  return out;
}

void expect_pinned(unsigned fanout, double rebuild_fill, const Pinned& want) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const Pinned got = run(fanout, rebuild_fill, threads);
    EXPECT_EQ(got.digest, want.digest);
    EXPECT_EQ(got.moved_slots, want.moved_slots);
    EXPECT_EQ(got.aux_nodes, want.aux_nodes);
    EXPECT_EQ(got.num_keys, want.num_keys);
  }
}

TEST(UpdateRebuildGolden, Fanout8Fill069) {
  expect_pinned(8, 0.69, {668992770898498952ULL, 17640, 109, 3202});
}

TEST(UpdateRebuildGolden, Fanout8Fill100) {
  expect_pinned(8, 1.0, {5560680629211641165ULL, 22533, 134, 3202});
}

TEST(UpdateRebuildGolden, Fanout64Fill069) {
  expect_pinned(64, 0.69, {6571160031965187734ULL, 58905, 18, 21238});
}

TEST(UpdateRebuildGolden, Fanout64Fill100) {
  expect_pinned(64, 1.0, {11704315483683466298ULL, 64638, 19, 21238});
}

}  // namespace
}  // namespace harmonia
