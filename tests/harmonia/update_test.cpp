#include "harmonia/update.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

using queries::OpKind;
using queries::UpdateOp;

struct UpdateFixture {
  std::vector<Key> keys;
  std::map<Key, Value> oracle;
  BatchUpdater updater;

  explicit UpdateFixture(std::uint64_t n = 2000, unsigned fanout = 8,
                         double fill = 0.69, std::uint64_t seed = 1)
      : keys(queries::make_tree_keys(n, seed)),
        updater(HarmoniaTree::from_btree(btree::make_tree(keys, fanout, fill))) {
    for (Key k : keys) oracle[k] = btree::value_for_key(k);
  }

  void apply_to_oracle(const std::vector<UpdateOp>& ops) {
    for (const auto& op : ops) {
      switch (op.kind) {
        case OpKind::kUpdate:
          if (auto it = oracle.find(op.key); it != oracle.end()) it->second = op.value;
          break;
        case OpKind::kInsert:
          oracle[op.key] = op.value;
          break;
        case OpKind::kDelete:
          oracle.erase(op.key);
          break;
      }
    }
  }

  void check_consistent() {
    const auto& tree = updater.tree();
    tree.validate();
    ASSERT_EQ(tree.num_keys(), oracle.size());
    for (const auto& [k, v] : oracle) {
      const auto got = tree.search(k);
      ASSERT_TRUE(got.has_value()) << "missing key " << k;
      ASSERT_EQ(*got, v) << "wrong value for " << k;
    }
  }
};

TEST(BatchUpdater, PureUpdatesInPlace) {
  UpdateFixture f;
  std::vector<UpdateOp> ops;
  Xoshiro256 rng(2);
  for (int i = 0; i < 500; ++i) {
    const Key k = f.keys[rng.next_below(f.keys.size())];
    ops.push_back({OpKind::kUpdate, k, rng.next()});
  }
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.updates, 500u);
  EXPECT_EQ(stats.fine_path_ops, 500u);
  EXPECT_EQ(stats.coarse_path_ops, 0u);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, UpdateMissingKeyFails) {
  UpdateFixture f;
  const auto missing = queries::make_missing_keys(f.keys, 10, 3);
  std::vector<UpdateOp> ops;
  for (Key k : missing) ops.push_back({OpKind::kUpdate, k, 1});
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.failed, 10u);
  f.check_consistent();
}

TEST(BatchUpdater, InsertsWithoutSplitStayFine) {
  UpdateFixture f(2000, 8, 0.5, 4);  // half-full leaves: room to insert
  const auto fresh = queries::make_missing_keys(f.keys, 50, 5);
  std::vector<UpdateOp> ops;
  for (Key k : fresh) ops.push_back({OpKind::kInsert, k, k});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.inserts, 50u);
  EXPECT_GT(stats.fine_path_ops, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, InsertsIntoFullLeavesSplit) {
  UpdateFixture f(2000, 8, 1.0, 6);  // full leaves: every insert splits
  const auto fresh = queries::make_missing_keys(f.keys, 100, 7);
  std::vector<UpdateOp> ops;
  for (Key k : fresh) ops.push_back({OpKind::kInsert, k, k * 2});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.coarse_path_ops, 100u);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_GT(stats.aux_nodes, 0u);
  EXPECT_GT(stats.moved_slots, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, MixedPaperBatch) {
  // Fig. 14 mix: 5% inserts, 95% updates.
  UpdateFixture f(5000, 16, 0.9, 8);
  queries::BatchSpec spec;
  spec.size = 2000;
  spec.insert_fraction = 0.05;
  spec.seed = 9;
  const auto ops = queries::make_update_batch(f.keys, spec);
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.total_ops(), 2000u);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, DeletesInPlace) {
  UpdateFixture f(2000, 16, 0.69, 10);
  std::vector<UpdateOp> ops;
  // Delete every 10th key: leaves keep >1 key, so the fine path suffices.
  for (std::size_t i = 0; i < f.keys.size(); i += 10) {
    ops.push_back({OpKind::kDelete, f.keys[i], 0});
  }
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.deletes, ops.size());
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, DeleteWholeLeafTakesCoarsePath) {
  UpdateFixture f(500, 8, 0.69, 11);
  // Delete an entire leaf's keys: the last one is a merge.
  const auto& tree = f.updater.tree();
  const std::uint32_t leaf = tree.first_leaf_index();
  const auto victims = tree.leaf_entries(leaf);
  ASSERT_GT(victims.size(), 1u);
  std::vector<UpdateOp> ops;
  for (const auto& e : victims) ops.push_back({OpKind::kDelete, e.key, 0});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_GT(stats.coarse_path_ops, 0u);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, InsertThenUpdateSameBatchUsesAux) {
  UpdateFixture f(1000, 8, 1.0, 12);
  const auto fresh = queries::make_missing_keys(f.keys, 5, 13);
  std::vector<UpdateOp> ops;
  for (Key k : fresh) ops.push_back({OpKind::kInsert, k, 1});
  // Updates to keys that now live in aux nodes.
  for (Key k : fresh) ops.push_back({OpKind::kUpdate, k, 42});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
  for (Key k : fresh) EXPECT_EQ(f.updater.tree().search(k).value(), 42u);
}

TEST(BatchUpdater, SequentialBatchesCompose) {
  UpdateFixture f(3000, 16, 0.8, 14);
  Xoshiro256 rng(15);
  for (int batch = 0; batch < 5; ++batch) {
    queries::BatchSpec spec;
    spec.size = 500;
    spec.insert_fraction = 0.2;
    spec.delete_fraction = 0.1;
    spec.seed = static_cast<std::uint64_t>(batch) + 100;
    // Build the batch against the updater's *current* key set.
    std::vector<Key> current;
    for (const auto& [k, v] : f.oracle) current.push_back(k);
    const auto ops = queries::make_update_batch(current, spec);
    f.apply_to_oracle(ops);
    f.updater.apply(ops);
    f.check_consistent();
  }
}

TEST(BatchUpdater, MultithreadedMatchesOracle) {
  // Batch < half the key set so updates sample without replacement and
  // the outcome is thread-schedule independent.
  UpdateFixture f(8000, 16, 0.9, 16);
  queries::BatchSpec spec;
  spec.size = 3000;
  spec.insert_fraction = 0.1;
  spec.seed = 17;
  const auto ops = queries::make_update_batch(f.keys, spec);
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops, /*threads=*/4);
  EXPECT_EQ(stats.total_ops(), 3000u);
  f.check_consistent();
}

TEST(BatchUpdater, MultithreadedDisjointUpdatesKeepAllValues) {
  // Every op touches a distinct key, so the result is schedule-independent
  // even with many threads hammering the two-grained locks.
  UpdateFixture f(4000, 8, 1.0, 18);
  std::vector<UpdateOp> ops;
  for (std::size_t i = 0; i < f.keys.size(); i += 2) {
    ops.push_back({OpKind::kUpdate, f.keys[i], f.keys[i] ^ 0xF00D});
  }
  f.apply_to_oracle(ops);
  f.updater.apply(ops, 8);
  f.check_consistent();
}

// Several ops on one key in one batch are ordered: insert, update and
// delete chains on a few hot keys must end the same way, and fail the same
// number of times, at any worker count as on one thread. Seven hot keys
// interleave round-robin, so consecutive ops on one key sit 7 apart and
// would land on different workers if ops were striped by index.
TEST(BatchUpdater, ThreadedApplyKeepsPerKeyArrivalOrder) {
  const auto chain_batch = [](const UpdateFixture& f) {
    std::vector<Key> hot{f.keys[100], f.keys[700], f.keys[1300]};
    for (std::size_t i = 400; hot.size() < 7; i += 300) {
      if (!f.oracle.contains(f.keys[i] + 1)) hot.push_back(f.keys[i] + 1);
    }
    const OpKind chain[] = {OpKind::kInsert, OpKind::kUpdate, OpKind::kDelete,
                            OpKind::kUpdate, OpKind::kDelete};
    std::vector<UpdateOp> ops;
    for (Value round = 0; round < 1500; ++round) {
      for (std::size_t h = 0; h < hot.size(); ++h) {
        ops.push_back({chain[(round + h) % 5], hot[h], round * 16 + h});
      }
    }
    return ops;
  };
  const auto contents = [](const HarmoniaTree& tree) {
    std::map<Key, Value> out;
    for (const auto& e : tree.range(0, ~Key{0})) out[e.key] = e.value;
    return out;
  };

  UpdateFixture serial;
  const auto ops = chain_batch(serial);
  serial.apply_to_oracle(ops);
  const UpdateStats want = serial.updater.apply(ops, 1);
  serial.check_consistent();
  ASSERT_GT(want.failed, 0u);

  for (const unsigned threads : {2u, 4u, 8u}) {
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE(testing::Message() << threads << " threads, rep " << rep);
      UpdateFixture f;
      const UpdateStats got = f.updater.apply(ops, threads);
      EXPECT_EQ(got.updates, want.updates);
      EXPECT_EQ(got.inserts, want.inserts);
      EXPECT_EQ(got.deletes, want.deletes);
      EXPECT_EQ(got.failed, want.failed);
      f.updater.tree().validate();
      EXPECT_EQ(contents(f.updater.tree()), contents(serial.updater.tree()));
    }
  }
}

/// FNV-1a over every region and shape field: equal digests mean equal
/// trees, byte for byte.
std::uint64_t tree_digest(const HarmoniaTree& tree) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  };
  const std::uint64_t shape[] = {tree.fanout(), tree.num_nodes(), tree.first_leaf_index(),
                                 tree.num_keys(), tree.height()};
  mix(shape, sizeof shape);
  mix(tree.key_region().data(), tree.key_region().size_bytes());
  mix(tree.prefix_sum().data(), tree.prefix_sum().size_bytes());
  mix(tree.value_region().data(), tree.value_region().size_bytes());
  return h;
}

/// The counters of two applies agree (timings and, off one thread, the
/// schedule-dependent coarse_retries aside).
void expect_same_counters(const UpdateStats& got, const UpdateStats& want) {
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.inserts, want.inserts);
  EXPECT_EQ(got.deletes, want.deletes);
  EXPECT_EQ(got.failed, want.failed);
  EXPECT_EQ(got.fine_path_ops, want.fine_path_ops);
  EXPECT_EQ(got.coarse_path_ops, want.coarse_path_ops);
  EXPECT_EQ(got.aux_nodes, want.aux_nodes);
  EXPECT_EQ(got.moved_slots, want.moved_slots);
  EXPECT_EQ(got.rebuilt, want.rebuilt);
}

// Ops on different keys of one leaf do not commute either: a delete
// frees the slot a later insert fills in place, while the insert first
// would split the leaf. So the result must not depend on which worker
// reaches a shared leaf first. Full leaves, 40% inserts and 40% deletes
// put many such pairs in one batch.
TEST(BatchUpdater, ThreadedApplyMatchesOneThreadOnSharedLeaves) {
  const auto keys = queries::make_tree_keys(1u << 16, 21);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, 16, 1.0));
  queries::BatchSpec spec;
  spec.size = 1u << 14;
  spec.insert_fraction = 0.4;
  spec.delete_fraction = 0.4;
  spec.seed = 22;
  const auto ops = queries::make_update_batch(keys, spec);

  BatchUpdater serial(tree, 0.69);
  const UpdateStats want = serial.apply(ops, 1);
  ASSERT_TRUE(want.rebuilt);
  ASSERT_GT(want.fine_path_ops, 0u);
  ASSERT_GT(want.coarse_path_ops, 0u);
  EXPECT_EQ(want.coarse_retries, 0u);
  const std::uint64_t want_digest = tree_digest(serial.tree());

  for (const unsigned threads : {2u, 4u, 8u}) {
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE(testing::Message() << threads << " threads, rep " << rep);
      BatchUpdater threaded(tree, 0.69);
      expect_same_counters(threaded.apply(ops, threads), want);
      EXPECT_EQ(tree_digest(threaded.tree()), want_digest);
    }
  }
}

/// Arrival-order reference for the apply: each op routes with find_leaf
/// and takes Algorithm 1's fine path when it neither splits nor empties
/// its leaf, else moves the leaf to an auxiliary node; the deferred
/// movement chunks aux nodes into target-fill leaves (from_leaves derives
/// the internal levels the way the rebuild does).
struct ArrivalOrderReference {
  HarmoniaTree tree;
  double fill;
  std::map<std::uint32_t, std::vector<btree::Entry>> aux;  // by leaf ordinal
  UpdateStats stats;

  void apply(const UpdateOp& op) {
    const std::uint32_t leaf = tree.find_leaf(op.key);
    const std::uint32_t li = leaf - tree.first_leaf_index();
    const auto split = aux.find(li);
    const auto find = [&](std::vector<btree::Entry>& entries) {
      return std::lower_bound(entries.begin(), entries.end(), op.key,
                              [](const btree::Entry& e, Key k) { return e.key < k; });
    };
    const auto move_to_aux = [&]() -> std::vector<btree::Entry>& {
      if (split == aux.end()) return aux[li] = tree.leaf_entries(leaf);
      return split->second;
    };
    switch (op.kind) {
      case OpKind::kUpdate: {
        ++stats.updates;
        ++stats.fine_path_ops;
        bool ok;
        if (split != aux.end()) {
          const auto it = find(split->second);
          ok = it != split->second.end() && it->key == op.key;
          if (ok) it->value = op.value;
        } else {
          ok = tree.leaf_update_inplace(leaf, op.key, op.value);
        }
        if (!ok) ++stats.failed;
        return;
      }
      case OpKind::kInsert: {
        ++stats.inserts;
        if (split == aux.end() && tree.leaf_insert_inplace(leaf, op.key, op.value)) {
          ++stats.fine_path_ops;
          return;
        }
        ++stats.coarse_path_ops;
        auto& entries = move_to_aux();
        const auto it = find(entries);
        if (it != entries.end() && it->key == op.key) {
          it->value = op.value;
        } else {
          entries.insert(it, {op.key, op.value});
        }
        return;
      }
      case OpKind::kDelete: {
        ++stats.deletes;
        const bool fine = split != aux.end() ? split->second.size() > 1
                                             : tree.node_key_count(leaf) > 1;
        bool ok;
        if (fine && split == aux.end()) {
          ++stats.fine_path_ops;
          ok = tree.leaf_erase_inplace(leaf, op.key);
        } else {
          (fine ? stats.fine_path_ops : stats.coarse_path_ops) += 1;
          auto& entries = move_to_aux();
          const auto it = find(entries);
          ok = it != entries.end() && it->key == op.key;
          if (ok) entries.erase(it);
        }
        if (!ok) ++stats.failed;
        return;
      }
    }
  }

  HarmoniaTree finish() {
    if (aux.empty()) return tree;
    const unsigned kpn = tree.keys_per_node();
    const auto target = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(static_cast<double>(kpn) * fill)), 1, kpn);
    std::vector<std::vector<btree::Entry>> leaves;
    for (std::uint32_t li = 0; li < tree.num_leaves(); ++li) {
      const auto it = aux.find(li);
      if (it == aux.end()) {
        leaves.push_back(tree.leaf_entries(tree.first_leaf_index() + li));
        continue;
      }
      for (std::size_t i = 0; i < it->second.size(); i += target) {
        const auto first = it->second.begin() + static_cast<std::ptrdiff_t>(i);
        leaves.emplace_back(first, first + static_cast<std::ptrdiff_t>(
                                               std::min(target, it->second.size() - i)));
      }
    }
    HarmoniaTree out = HarmoniaTree::from_leaves(std::move(leaves), tree.fanout());
    stats.rebuilt = true;
    stats.aux_nodes = aux.size();
    const std::uint64_t slots = std::uint64_t{out.num_nodes()} * kpn;
    stats.moved_slots = slots - std::min<std::uint64_t>(slots, std::uint64_t{aux.begin()->first} * kpn);
    return out;
  }
};

// The leaf-ordered apply against the arrival-order reference: random
// batches whose ops crowd a few dozen leaves (several ops per leaf, every
// kind, repeated keys), each chained onto the last so the rebuild reuses
// retired buffers, plus a delete-then-insert pair on a full leaf, at
// fanout 8 and 64 and at one and three threads.
TEST(BatchUpdater, LeafOrderedApplyMatchesArrivalOrderReference) {
  for (const unsigned fanout : {8u, 64u}) {
    for (const unsigned threads : {1u, 3u}) {
      SCOPED_TRACE(testing::Message() << "fanout " << fanout << ", " << threads << " threads");
      const auto keys = queries::make_tree_keys(fanout * 200, fanout + threads);
      BatchUpdater updater(HarmoniaTree::from_btree(btree::make_tree(keys, fanout, 1.0)), 0.69);
      std::vector<Key> live(keys.begin(), keys.end());
      Xoshiro256 rng(fanout * 10 + threads);
      for (int batch = 0; batch < 6; ++batch) {
        SCOPED_TRACE(testing::Message() << "batch " << batch);
        const HarmoniaTree& before = updater.tree();
        std::vector<UpdateOp> ops;
        // Delete-then-insert on one full leaf: the insert fits in place.
        const std::uint32_t full = before.first_leaf_index() +
                                   static_cast<std::uint32_t>(rng.next_below(before.num_leaves()));
        const auto entries = before.leaf_entries(full);
        if (entries.size() == before.keys_per_node() && entries[0].key + 1 < entries[1].key) {
          ops.push_back({OpKind::kDelete, entries.back().key, 0});
          ops.push_back({OpKind::kInsert, entries[0].key + 1, 77});
        }
        // A window of ~30 leaves' worth of keys takes 600 mixed ops.
        std::sort(live.begin(), live.end());
        const std::size_t span = std::min<std::size_t>(live.size(), 30 * (fanout - 1));
        const std::size_t lo = rng.next_below(live.size() - span + 1);
        for (int i = 0; i < 600; ++i) {
          const Key base = live[lo + rng.next_below(span)];
          const Key key = rng.next_below(3) == 0 ? base + 1 + rng.next_below(3) : base;
          const auto kind = static_cast<OpKind>(rng.next_below(3));
          ops.push_back({kind, key, rng.next()});
        }
        ArrivalOrderReference ref{before, 0.69, {}, {}};
        for (const auto& op : ops) ref.apply(op);
        const HarmoniaTree want = ref.finish();

        const UpdateStats got = updater.apply(ops, threads);
        expect_same_counters(got, ref.stats);
        updater.tree().validate();
        ASSERT_EQ(tree_digest(updater.tree()), tree_digest(want));
        live.clear();
        for (const auto& e : updater.tree().range(0, ~Key{0} - 1)) live.push_back(e.key);
      }
    }
  }
}

TEST(BatchUpdater, StatsTimingsPopulated) {
  UpdateFixture f;
  std::vector<UpdateOp> ops{{OpKind::kUpdate, f.keys[0], 1}};
  const auto stats = f.updater.apply(ops);
  EXPECT_GE(stats.apply_seconds, 0.0);
  EXPECT_GE(stats.rebuild_seconds, 0.0);
  EXPECT_GT(stats.ops_per_second(), 0.0);
}

}  // namespace
}  // namespace harmonia
