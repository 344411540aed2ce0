// A one-device serving topology for tests: a 1-shard ShardedIndex over
// make_tree_keys(tree_keys, 1) on an 8-SM TITAN V. It is the shape
// ServingStack builds for shards = 1, served by shard::ShardedServer.
#pragma once

#include <cstdint>
#include <vector>

#include "btree/btree.hpp"
#include "queries/workload.hpp"
#include "shard/sharded_index.hpp"

namespace harmonia::shard {

struct SingleShardFixture {
  explicit SingleShardFixture(std::uint64_t tree_keys = 1 << 12,
                              unsigned fanout = 16)
      : keys(queries::make_tree_keys(tree_keys, 1)), index([&] {
          std::vector<btree::Entry> entries;
          for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
          ShardedOptions options;
          options.index.fanout = fanout;
          options.device = gpusim::titan_v();
          options.device.num_sms = 8;
          options.device_global_bytes = 512 << 20;
          return ShardedIndex(entries, ShardPlan::sample_balanced(keys, 1),
                              options);
        }()) {}

  /// The one shard's index: the tree the device serves.
  HarmoniaIndex& device_index() { return *index.shard(0); }

  std::vector<Key> keys;
  ShardedIndex index;
};

}  // namespace harmonia::shard
