// The ShardedIndex constructor builds its shards concurrently, each into
// its own device. Every shard must come out exactly as a one-shard
// HarmoniaIndex::build over its slice (host tree and device bytes), and a
// shard that cannot be built must fail the constructor with the lowest
// failing shard's error once every worker has been joined.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "shard/sharded_index.hpp"

namespace harmonia::shard {
namespace {

ShardedOptions small_options(std::uint64_t device_bytes) {
  ShardedOptions options;
  options.index.fanout = 16;
  options.device = gpusim::titan_v();
  options.device.num_sms = 8;
  options.device_global_bytes = device_bytes;
  return options;
}

std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  out.reserve(keys.size());
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

/// The device a shard gets: the options' preset capped at
/// device_global_bytes.
gpusim::DeviceSpec shard_spec(const ShardedOptions& options) {
  auto spec = options.device;
  spec.global_mem_bytes = options.device_global_bytes;
  return spec;
}

template <typename T>
void fnv1a(std::uint64_t& h, std::span<const T> v) {
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size_bytes(); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

std::uint64_t tree_digest(const HarmoniaTree& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::vector<std::uint64_t> shape{t.fanout(), t.num_nodes(), t.first_leaf_index(),
                                   t.num_keys()};
  for (unsigned l = 0; l < t.height(); ++l) shape.push_back(t.level_start(l));
  fnv1a(h, std::span<const std::uint64_t>(shape));
  fnv1a(h, t.key_region());
  fnv1a(h, t.prefix_sum());
  fnv1a(h, t.value_region());
  return h;
}

/// Every allocated byte of both segments, read back from the device.
std::vector<std::uint8_t> device_bytes(gpusim::Memory& mem) {
  std::vector<std::uint8_t> out(mem.global_used() + mem.const_used());
  mem.copy_to_host(std::span<std::uint8_t>(out.data(), mem.global_used()),
                   gpusim::DevPtr<std::uint8_t>{0});
  if (mem.const_used() > 0) {
    mem.copy_to_host(std::span<std::uint8_t>(out.data() + mem.global_used(), mem.const_used()),
                     gpusim::DevPtr<std::uint8_t>{gpusim::kConstBase});
  }
  return out;
}

TEST(ShardedIndexBuild, ConcurrentShardsEqualOneShardBuilds) {
  const auto keys = queries::make_tree_keys(40000, 3);
  const auto entries = entries_for(keys);
  const auto options = small_options(64 << 20);
  for (const unsigned shards : {1u, 3u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << shards << " shards");
    ShardedIndex sharded(entries, ShardPlan::sample_balanced(keys, shards), options);
    ASSERT_EQ(sharded.num_keys(), keys.size());
    for (unsigned s = 0; s < shards; ++s) {
      const auto lo = std::lower_bound(keys.begin(), keys.end(), sharded.plan().lo(s));
      const auto hi = std::upper_bound(keys.begin(), keys.end(), sharded.plan().hi(s));
      const std::span<const btree::Entry> slice(entries.data() + (lo - keys.begin()),
                                                static_cast<std::size_t>(hi - lo));
      ASSERT_FALSE(slice.empty());
      gpusim::Device device(shard_spec(options));
      auto want = HarmoniaIndex::build(device, slice, options.index);
      HarmoniaIndex* got = sharded.shard(s);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(tree_digest(got->tree()), tree_digest(want.tree())) << "shard " << s;
      EXPECT_EQ(device_bytes(got->device().memory()), device_bytes(device.memory()))
          << "shard " << s;
    }
  }
}

TEST(ShardedIndexBuild, ShardWithoutKeysStaysEmpty) {
  // Keys only below 2^63: the upper shards of an equal-width plan hold none.
  std::vector<Key> keys = queries::make_tree_keys(5000, 5);
  for (Key& k : keys) k >>= 1;
  ShardedIndex sharded(entries_for(keys), ShardPlan::equal_width(4), small_options(64 << 20));
  EXPECT_NE(sharded.shard(0), nullptr);
  EXPECT_NE(sharded.shard(1), nullptr);
  EXPECT_EQ(sharded.shard(2), nullptr);
  EXPECT_EQ(sharded.shard(3), nullptr);
  EXPECT_EQ(sharded.num_keys(), keys.size());
}

TEST(ShardedIndexBuild, OverflowingShardFailsWithTheLowestShardsError) {
  // Shards 1 and 3 hold too many keys for their device, shard 3 more than
  // shard 1; shards 0 and 2 fit. The constructor must rethrow shard 1's
  // error, whichever worker failed first.
  constexpr std::uint64_t kDeviceBytes = 1 << 20;
  const auto options = small_options(kDeviceBytes);
  std::vector<Key> keys;
  const auto add = [&](Key base, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) keys.push_back(base + i * 3);
  };
  const Key width = Key{1} << 62;
  add(0, 1000);
  add(width, 60000);
  add(2 * width, 1000);
  add(3 * width, 90000);
  const auto entries = entries_for(keys);

  std::string want;
  {
    const std::span<const btree::Entry> shard1(entries.data() + 1000, 60000);
    gpusim::Device device(shard_spec(options));
    try {
      HarmoniaIndex::build(device, shard1, options.index);
    } catch (const ContractViolation& e) {
      want = e.what();
    }
  }
  ASSERT_NE(want, "");
  for (int round = 0; round < 5; ++round) {
    try {
      ShardedIndex sharded(entries, ShardPlan::equal_width(4), options);
      FAIL() << "the constructor must throw";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

}  // namespace
}  // namespace harmonia::shard
