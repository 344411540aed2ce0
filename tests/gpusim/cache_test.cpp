#include "gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"

namespace harmonia::gpusim {
namespace {

TEST(Cache, MissThenHit) {
  Cache c(1024, 128, 2);  // 4 sets x 2 ways
  EXPECT_FALSE(c.access(10));
  EXPECT_TRUE(c.access(10));
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(2 * 128, 128, 2);  // 1 set, 2 ways: lines 0,1,2 conflict
  c.access(0);
  c.access(1);
  c.access(0);     // 0 is now MRU
  c.access(2);     // evicts 1 (LRU)
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(2));
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, SetsIsolateLines) {
  Cache c(4 * 128, 128, 1);  // 4 direct-mapped sets
  // Lines 0..3 map to distinct sets -> all retained.
  for (std::uint64_t line = 0; line < 4; ++line) c.access(line);
  for (std::uint64_t line = 0; line < 4; ++line) EXPECT_TRUE(c.contains(line));
  // Line 4 conflicts with line 0 only.
  c.access(4);
  EXPECT_FALSE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
}

TEST(Cache, FlushEmptiesTags) {
  Cache c(1024, 128, 2);
  c.access(5);
  c.flush();
  EXPECT_FALSE(c.contains(5));
  EXPECT_FALSE(c.access(5));  // miss again after flush
}

TEST(Cache, CapacityHoldsWorkingSet) {
  Cache c(64 * 128, 128, 8);  // 64 lines total
  for (std::uint64_t line = 0; line < 64; ++line) c.access(line);
  c.reset_stats();
  for (std::uint64_t line = 0; line < 64; ++line) c.access(line);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_EQ(c.hits(), 64u);
}

TEST(Cache, ThrashingWorkingSetMisses) {
  Cache c(64 * 128, 128, 8);  // 8 sets x 8 ways
  // 128 lines cycled: every access misses once warm (LRU, round robin).
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t line = 0; line < 128; ++line) c.access(line);
  }
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 256u);
}

TEST(Cache, InvalidGeometryThrows) {
  EXPECT_THROW(Cache(1000, 128, 2), ContractViolation);  // not a multiple
}

TEST(Cache, ResetFlushesContentsAndZeroesCounters) {
  Cache c(1024, 128, 2);
  c.access(1);
  c.access(1);
  c.access(2);
  ASSERT_GT(c.hits(), 0u);
  ASSERT_GT(c.misses(), 0u);
  c.reset();
  // Cold again: nothing cached, nothing counted.
  EXPECT_FALSE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.access(1));  // first access after reset is a miss
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, ResetStatsKeepsContents) {
  Cache c(1024, 128, 2);
  c.access(1);
  c.reset_stats();
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_TRUE(c.access(1));  // still cached
}

// ---- Differential check against a reference LRU ----

/// The straightforward model: per set, ways of {tag, stamp}; a miss
/// replaces the first way with the smallest stamp.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t sets, unsigned ways) : sets_(sets), ways_(ways), slots_(sets * ways) {}

  bool access(std::uint64_t line) {
    Way* set = &slots_[static_cast<std::size_t>(line % sets_) * ways_];
    ++tick_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (set[w].tag == line) {
        set[w].stamp = tick_;
        return true;
      }
    }
    Way* victim = set;
    for (unsigned w = 1; w < ways_; ++w) {
      if (set[w].stamp < victim->stamp) victim = &set[w];
    }
    *victim = {line, tick_};
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = ~std::uint64_t{0};
    std::uint64_t stamp = 0;
  };
  std::size_t sets_;
  unsigned ways_;
  std::uint64_t tick_ = 0;
  std::vector<Way> slots_;
};

/// Runs one random line stream through both models and compares every
/// hit/miss. The stream mixes a hot set (hits), a range about twice the
/// capacity (conflict evictions) and sequential runs (set sweeps).
void expect_same_hits(Cache& cache, std::size_t sets, unsigned ways, std::uint64_t seed) {
  ReferenceLru ref(sets, ways);
  Xoshiro256 rng(seed);
  const std::uint64_t capacity_lines = sets * ways;
  std::uint64_t hits = 0;
  std::uint64_t seq = rng.next_below(1 << 20);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t line;
    switch (rng.next_below(3)) {
      case 0: line = rng.next_below(capacity_lines / 2 + 1); break;
      case 1: line = rng.next_below(2 * capacity_lines); break;
      default: line = seq++; break;
    }
    const bool want = ref.access(line);
    ASSERT_EQ(cache.access(line), want) << "access " << i << " line " << line;
    hits += want ? 1 : 0;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, 200000u);
  EXPECT_EQ(cache.hits(), hits);
}

TEST(CacheDifferential, TitanVGeometriesMatchReferenceLru) {
  const auto spec = titan_v();
  Device dev(spec);
  const auto sets = [&](const Cache& c) {
    return static_cast<std::size_t>(c.capacity_bytes() / spec.line_bytes / spec.cache_ways);
  };
  // L2 is not a power-of-two set count; read-only and constant are.
  ASSERT_EQ(sets(dev.l2()), 4608u);
  ASSERT_EQ(sets(dev.readonly_cache(0)), 128u);
  ASSERT_EQ(sets(dev.const_cache(0)), 2u);
  for (Cache* c : {&dev.l2(), &dev.readonly_cache(0), &dev.const_cache(0)}) {
    for (std::uint64_t seed : {1u, 2u}) {
      c->reset();
      ASSERT_NO_FATAL_FAILURE(expect_same_hits(*c, sets(*c), spec.cache_ways, seed))
          << sets(*c) << " sets, seed " << seed;
    }
  }
}

}  // namespace
}  // namespace harmonia::gpusim
