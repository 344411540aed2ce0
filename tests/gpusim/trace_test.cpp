#include "gpusim/trace.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "gpusim/device.hpp"

namespace harmonia::gpusim {
namespace {

DeviceSpec tiny_spec() {
  DeviceSpec spec = titan_v();
  spec.num_sms = 2;
  spec.global_mem_bytes = 16 << 20;
  return spec;
}

TEST(Trace, DisabledRecordsNothing) {
  Device dev(tiny_spec());
  dev.launch(2, [](WarpCtx& w) { w.compute(full_mask(32)); });
  EXPECT_TRUE(dev.trace().events().empty());
}

TEST(Trace, RecordsComputeAndLoadEvents) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(64);
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    w.compute(full_mask(32));
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 32; ++i) addrs[i] = data.element_addr(i);
    w.touch(full_mask(32), addrs, 8);
  });
  const auto& events = dev.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kCompute);
  EXPECT_EQ(events[0].mask, full_mask(32));
  EXPECT_GT(events[0].cycles, 0u);
  EXPECT_EQ(events[1].kind, TraceEventKind::kLoad);
  EXPECT_GE(events[1].transactions, 2u);  // 256 B of u64
  EXPECT_EQ(events[1].served_by, ServedBy::kDram);  // cold caches
}

TEST(Trace, SecondAccessServedByCache) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(16);
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 16; ++i) addrs[i] = data.element_addr(i);
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    w.touch(full_mask(16), addrs, 8);
    w.touch(full_mask(16), addrs, 8);
  });
  const auto& events = dev.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].served_by, ServedBy::kDram);
  EXPECT_EQ(events[1].served_by, ServedBy::kReadOnly);
}

TEST(Trace, ConstantAccessTagged) {
  Device dev(tiny_spec());
  auto data = dev.memory().const_malloc<std::uint32_t>(8);
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 8; ++i) addrs[i] = data.element_addr(i);
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    w.touch(full_mask(8), addrs, 4);
    w.touch(full_mask(8), addrs, 4);
  });
  ASSERT_EQ(dev.trace().events().size(), 2u);
  EXPECT_EQ(dev.trace().events()[1].served_by, ServedBy::kConst);
}

TEST(Trace, EqualLatencyTieGoesToTheLaterLine) {
  // With equal read-only and L2 latencies, an access whose two lines are
  // served by those two levels reports the level of the later line (the
  // higher address), whichever level that is.
  DeviceSpec spec = tiny_spec();
  spec.lat_l2 = spec.lat_readonly;
  for (const bool later_in_l2 : {true, false}) {
    Device dev(spec);
    auto data = dev.memory().malloc<std::uint64_t>(64);
    const std::uint64_t early = data.element_addr(0);
    const std::uint64_t late = data.element_addr(16);  // the next 128 B line
    // Warp 0 (SM 0) warms one line into its read-only cache; warp 1
    // (SM 1) puts the other into the L2 only, as far as SM 0 can see.
    dev.launch(2, [&](WarpCtx& w) {
      std::array<std::uint64_t, 32> addrs{};
      addrs[0] = (w.warp_id() == 0) == later_in_l2 ? early : late;
      w.touch(lane_bit(0), addrs, 8);
    });
    dev.trace().enable();
    dev.launch(1, [&](WarpCtx& w) {
      std::array<std::uint64_t, 32> addrs{};
      addrs[0] = early;
      addrs[1] = late;
      w.touch(full_mask(2), addrs, 8);
    });
    ASSERT_EQ(dev.trace().events().size(), 1u);
    const TraceEvent& e = dev.trace().events()[0];
    EXPECT_EQ(e.transactions, 2u);
    EXPECT_EQ(e.served_by, later_in_l2 ? ServedBy::kL2 : ServedBy::kReadOnly);
    EXPECT_EQ(e.cycles, spec.lat_readonly + spec.txn_issue_cycles);
  }
}

TEST(Trace, CapacityBoundsAndCountsDropped) {
  Device dev(tiny_spec());
  dev.trace().enable(/*capacity=*/3);
  dev.launch(1, [](WarpCtx& w) {
    for (int i = 0; i < 10; ++i) w.compute(full_mask(32));
  });
  EXPECT_EQ(dev.trace().events().size(), 3u);
  EXPECT_EQ(dev.trace().dropped(), 7u);
}

TEST(Trace, StoreEventsTagged) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(8);
  dev.trace().enable();
  dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    std::array<std::uint64_t, 32> vals{};
    for (unsigned i = 0; i < 8; ++i) addrs[i] = data.element_addr(i);
    w.scatter<std::uint64_t>(full_mask(8), addrs,
                             std::span<const std::uint64_t>(vals.data(), 32));
  });
  ASSERT_EQ(dev.trace().events().size(), 1u);
  EXPECT_EQ(dev.trace().events()[0].kind, TraceEventKind::kStore);
}

TEST(Trace, DumpIsHumanReadable) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(8);
  dev.trace().enable(2);
  dev.launch(1, [&](WarpCtx& w) {
    w.compute(full_mask(32));
    std::array<std::uint64_t, 32> addrs{};
    addrs[0] = data.element_addr(0);
    w.touch(lane_bit(0), addrs, 8);
    w.compute(full_mask(16));  // dropped (capacity 2)
  });
  std::ostringstream os;
  dev.trace().dump(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("compute"), std::string::npos);
  EXPECT_NE(s.find("load"), std::string::npos);
  EXPECT_NE(s.find("dram"), std::string::npos);
  EXPECT_NE(s.find("1 events dropped"), std::string::npos);
}

TEST(Trace, ClearKeepsEnabledState) {
  Trace trace;
  trace.enable(10);
  trace.record({});
  trace.clear();
  EXPECT_TRUE(trace.enabled());
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, EnumNames) {
  EXPECT_STREQ(to_string(TraceEventKind::kCompute), "compute");
  EXPECT_STREQ(to_string(TraceEventKind::kLoad), "load");
  EXPECT_STREQ(to_string(TraceEventKind::kStore), "store");
  EXPECT_STREQ(to_string(ServedBy::kConst), "const");
  EXPECT_STREQ(to_string(ServedBy::kDram), "dram");
}

}  // namespace
}  // namespace harmonia::gpusim
