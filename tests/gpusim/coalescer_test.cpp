#include "gpusim/coalescer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace harmonia::gpusim {
namespace {

constexpr unsigned kLine = 128;

TEST(Coalescer, FullyCoalescedWarpLoad) {
  // 32 lanes reading consecutive u32s: 128 bytes = exactly one line.
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = 4096 + i * 4;
  const auto lines = coalesce(addrs, full_mask(32), 4, kLine);
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 4096u / kLine);
}

TEST(Coalescer, ConsecutiveU64sNeedTwoLines) {
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = 0 + i * 8;  // 256 B
  EXPECT_EQ(coalesce(addrs, full_mask(32), 8, kLine).size(), 2u);
}

TEST(Coalescer, ScatteredAddressesOneLineEach) {
  std::array<std::uint64_t, 4> addrs{0, 10000, 20000, 30000};
  EXPECT_EQ(coalesce(addrs, full_mask(4), 8, kLine).size(), 4u);
}

TEST(Coalescer, InactiveLanesIgnored) {
  std::array<std::uint64_t, 4> addrs{0, 10000, 20000, 30000};
  const LaneMask mask = lane_bit(0) | lane_bit(2);
  EXPECT_EQ(coalesce(addrs, mask, 8, kLine).size(), 2u);
}

TEST(Coalescer, StraddlingAccessCountsBothLines) {
  std::array<std::uint64_t, 1> addrs{kLine - 4};  // 8 B crossing the boundary
  EXPECT_EQ(coalesce(addrs, full_mask(1), 8, kLine).size(), 2u);
}

TEST(Coalescer, DuplicateAddressesDeduplicate) {
  std::array<std::uint64_t, 8> addrs{};
  addrs.fill(512);  // broadcast load
  EXPECT_EQ(coalesce(addrs, full_mask(8), 8, kLine).size(), 1u);
}

TEST(Coalescer, ResultSorted) {
  std::array<std::uint64_t, 3> addrs{30000, 0, 20000};
  const auto lines = coalesce(addrs, full_mask(3), 8, kLine);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_LT(lines[0], lines[1]);
  EXPECT_LT(lines[1], lines[2]);
}

TEST(Coalescer, SameLineUnorderedStillOneTransaction) {
  // The §4.1.2 point: a partially-sorted group within one line coalesces
  // even though the addresses are not ascending.
  std::array<std::uint64_t, 4> addrs{1024 + 24, 1024, 1024 + 8, 1024 + 16};
  EXPECT_EQ(coalesce(addrs, full_mask(4), 8, kLine).size(), 1u);
}

// ---- Differential check against a reference coalescer ----

/// The straightforward definition: every active lane's line range, then
/// sort + unique.
std::vector<std::uint64_t> reference_lines(std::span<const std::uint64_t> addrs,
                                           LaneMask active, unsigned bytes_per_lane,
                                           unsigned line_bytes) {
  std::vector<std::uint64_t> lines;
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (!lane_active(active, lane)) continue;
    const std::uint64_t last = (addrs[lane] + bytes_per_lane - 1) / line_bytes;
    for (std::uint64_t line = addrs[lane] / line_bytes; line <= last; ++line) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  return lines;
}

void expect_matches_reference(std::span<const std::uint64_t> addrs, LaneMask active,
                              unsigned bytes_per_lane, unsigned line_bytes) {
  const auto got = coalesce(addrs, active, bytes_per_lane, line_bytes);
  const auto want = reference_lines(addrs, active, bytes_per_lane, line_bytes);
  ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want)
      << "mask " << active << ", " << bytes_per_lane << " B lanes, " << line_bytes << " B lines";
}

TEST(CoalescerDifferential, RandomWarpsMatchSortUnique) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 20000; ++trial) {
    const unsigned line = 32u << rng.next_below(3);           // 32/64/128 B
    const auto bytes = static_cast<unsigned>(rng.next_below(8) + 1);  // 1..8 B
    const auto lanes = static_cast<std::size_t>(rng.next_below(32) + 1);
    std::array<std::uint64_t, 32> addrs{};
    // Alternate clustered warps (shared and straddled lines, partial
    // order) with scattered ones (many distinct lines).
    const std::uint64_t span = trial % 2 == 0 ? 4 * line : std::uint64_t{1} << 30;
    const std::uint64_t base = rng.next_below(std::uint64_t{1} << 40);
    for (std::size_t i = 0; i < lanes; ++i) addrs[i] = base + rng.next_below(span);
    if (trial % 3 == 0) std::sort(addrs.begin(), addrs.begin() + static_cast<long>(lanes));
    if (trial % 5 == 0) {
      std::sort(addrs.begin(), addrs.begin() + static_cast<long>(lanes), std::greater<>());
    }
    LaneMask mask = static_cast<LaneMask>(rng.next());
    if (trial % 4 == 0) mask = ~LaneMask{0};
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(std::span(addrs.data(), lanes), mask, bytes, line));
  }
}

TEST(CoalescerDifferential, WorstCaseSixtyFourLines) {
  // Every lane straddles its own pair of lines: 32 lanes x 2 = capacity.
  for (const unsigned line : {32u, 64u, 128u}) {
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 32; ++i) addrs[i] = (2 * i + 1) * std::uint64_t{line} - 1;
    const auto lines = coalesce(addrs, full_mask(32), 2, line);
    EXPECT_EQ(lines.size(), kMaxWarpLines);
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(addrs, full_mask(32), 2, line));
    // Descending lanes take the insertion path at every step.
    std::reverse(addrs.begin(), addrs.end());
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(addrs, full_mask(32), 2, line));
  }
}

TEST(CoalescerDifferential, EmptyMaskAndEmptySpanGiveNoLines) {
  std::array<std::uint64_t, 4> addrs{0, 128, 256, 384};
  EXPECT_TRUE(coalesce(addrs, 0, 8, kLine).empty());
  EXPECT_TRUE(coalesce(std::span<const std::uint64_t>(), full_mask(32), 8, kLine).empty());
}

TEST(Coalescer, RejectsLaneWiderThanLine) {
  std::array<std::uint64_t, 1> addrs{0};
  EXPECT_THROW(coalesce(addrs, full_mask(1), 64, 32), ContractViolation);
  EXPECT_NO_THROW(coalesce(addrs, full_mask(1), 32, 32));
}

TEST(Coalescer, RejectsMoreThanThirtyTwoLanes) {
  std::array<std::uint64_t, 33> addrs{};
  EXPECT_THROW(coalesce(addrs, ~LaneMask{0}, 8, kLine), ContractViolation);
}

TEST(Coalescer, RejectsNonPowerOfTwoLine) {
  std::array<std::uint64_t, 1> addrs{0};
  EXPECT_THROW(coalesce(addrs, full_mask(1), 8, 96), ContractViolation);
}

}  // namespace
}  // namespace harmonia::gpusim
