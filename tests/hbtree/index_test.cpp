#include "hbtree/index.hpp"

#include <gtest/gtest.h>

#include <map>

#include "queries/workload.hpp"

namespace harmonia::hbtree {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

TEST(HBTreeIndex, BuildAndSearch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 1);
  auto index = HBTreeIndex::build(dev, entries_for(keys), 16);
  const auto qs = queries::make_queries(keys, 500, queries::Distribution::kUniform, 2);
  const auto result = index.search(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(result.values[i], btree::value_for_key(qs[i]));
  }
  EXPECT_GT(result.kernel_seconds, 0.0);
  EXPECT_GT(result.throughput(), 0.0);
}

TEST(HBTreeIndex, UpdateBatchThenSearch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(3000, 3);
  auto index = HBTreeIndex::build(dev, entries_for(keys), 16);

  queries::BatchSpec spec;
  spec.size = 1000;
  spec.insert_fraction = 0.2;
  spec.seed = 4;
  const auto ops = queries::make_update_batch(keys, spec);
  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  for (const auto& op : ops) oracle[op.key] = op.value;

  const auto stats = index.update_batch(ops);
  EXPECT_EQ(stats.total_ops(), 1000u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.apply_seconds + stats.sync_seconds, 0.0);
  index.tree().validate();

  std::vector<Key> qs2;
  for (const auto& op : ops) qs2.push_back(op.key);
  const auto r2 = index.search(qs2);
  for (std::size_t i = 0; i < qs2.size(); ++i) {
    ASSERT_EQ(r2.values[i], oracle.at(qs2[i]));
  }
}

TEST(HBTreeIndex, DeleteBatch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1000, 5);
  auto index = HBTreeIndex::build(dev, entries_for(keys), 8);
  std::vector<queries::UpdateOp> ops;
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    ops.push_back({queries::OpKind::kDelete, keys[i], 0});
  }
  const auto stats = index.update_batch(ops);
  EXPECT_EQ(stats.deletes, ops.size());
  index.tree().validate();
  std::vector<Key> deleted;
  for (const auto& op : ops) deleted.push_back(op.key);
  const auto result = index.search(deleted);
  for (Value v : result.values) EXPECT_EQ(v, kNotFound);
}

TEST(HBTreeIndex, KeySortedApplyMatchesArrivalOrder) {
  // The batch is applied stably sorted by key. Ops on one key must still
  // run in arrival order: insert -> update -> delete -> update (fails) on
  // a fresh key, delete -> insert on an old one, and an update of a key
  // that is never present. Contents and counts equal an arrival-order
  // apply on a plain B+tree.
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 6);
  const auto entries = entries_for(keys);
  auto index = HBTreeIndex::build(dev, entries, 8);

  queries::BatchSpec spec;
  spec.size = 3000;
  spec.insert_fraction = 0.3;
  spec.delete_fraction = 0.2;
  spec.seed = 7;
  auto ops = queries::make_update_batch(keys, spec);
  const Key fresh = keys[100] + 1;  // strides apart from keys[101]
  using queries::OpKind;
  ops.insert(ops.begin() + 10, {OpKind::kInsert, fresh, 1});
  ops.insert(ops.begin() + 500, {OpKind::kUpdate, fresh, 2});
  ops.insert(ops.begin() + 900, {OpKind::kDelete, fresh, 0});
  ops.insert(ops.begin() + 1200, {OpKind::kUpdate, fresh, 3});
  ops.insert(ops.begin() + 20, {OpKind::kDelete, keys[5], 0});
  ops.insert(ops.begin() + 1500, {OpKind::kInsert, keys[5], 4});
  ops.insert(ops.begin() + 40, {OpKind::kUpdate, fresh + 2, 5});

  btree::BTree arrival(8);
  arrival.bulk_load(entries);
  HBUpdateStats expect;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kUpdate:
        ++expect.updates;
        if (!arrival.update(op.key, op.value)) ++expect.failed;
        break;
      case OpKind::kInsert:
        ++expect.inserts;
        arrival.insert(op.key, op.value);
        break;
      case OpKind::kDelete:
        ++expect.deletes;
        if (!arrival.erase(op.key)) ++expect.failed;
        break;
    }
  }

  const auto stats = index.update_batch(ops);
  index.tree().validate();
  EXPECT_EQ(stats.updates, expect.updates);
  EXPECT_EQ(stats.inserts, expect.inserts);
  EXPECT_EQ(stats.deletes, expect.deletes);
  EXPECT_EQ(stats.failed, expect.failed);
  EXPECT_GE(stats.failed, 2u);  // the late update of `fresh`, the absent key
  const auto got = index.tree().range(0, ~Key{0});
  const auto want = arrival.range(0, ~Key{0});
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key);
    ASSERT_EQ(got[i].value, want[i].value);
  }
  EXPECT_EQ(index.tree().search(keys[5]), std::optional<Value>(4));
  EXPECT_FALSE(index.tree().search(fresh).has_value());
}

}  // namespace
}  // namespace harmonia::hbtree
