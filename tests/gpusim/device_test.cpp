#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

namespace harmonia::gpusim {
namespace {

DeviceSpec tiny_spec() {
  DeviceSpec spec = titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 16 << 20;
  return spec;
}

TEST(Device, LaunchRunsKernelPerWarp) {
  Device dev(tiny_spec());
  std::atomic<std::uint64_t> ran{0};
  const auto metrics = dev.launch(10, [&](WarpCtx& w) {
    ++ran;
    w.compute(full_mask(w.warp_size()));
  });
  EXPECT_EQ(ran, 10u);
  EXPECT_EQ(metrics.warps, 10u);
  EXPECT_EQ(metrics.steps, 10u);
  EXPECT_EQ(metrics.coherent_steps, 10u);
}

TEST(Device, WarpsRoundRobinAcrossSms) {
  Device dev(tiny_spec());
  std::array<unsigned, 8> sm_of_warp{};
  dev.launch(8, [&](WarpCtx& w) {
    sm_of_warp[w.warp_id()] = w.sm_id();
    w.compute(full_mask(32));
  });
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(sm_of_warp[i], i % 4);
}

TEST(Device, PartialMaskStepsAreIncoherent) {
  Device dev(tiny_spec());
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    w.compute(full_mask(32));     // coherent
    w.compute(full_mask(16));     // incoherent
    w.compute(lane_bit(0), 2);    // two incoherent steps
  });
  EXPECT_EQ(metrics.steps, 4u);
  EXPECT_EQ(metrics.coherent_steps, 1u);
  EXPECT_NEAR(metrics.warp_coherence(), 0.25, 1e-12);
}

TEST(Device, GatherReadsValuesAndCounts) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(32);
  std::vector<std::uint64_t> host(32);
  for (std::size_t i = 0; i < 32; ++i) host[i] = i * 7;
  mem.copy_to_device(data, std::span<const std::uint64_t>(host));

  std::array<std::uint64_t, 32> got{};
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 32; ++i) addrs[i] = data.element_addr(i);
    w.gather<std::uint64_t>(full_mask(32), addrs, got);
  });
  for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(got[i], i * 7u);
  EXPECT_EQ(metrics.loads, 1u);
  // 32 consecutive u64 = 256 B = 2 or 3 lines depending on alignment.
  EXPECT_GE(metrics.transactions, 2u);
  EXPECT_LE(metrics.transactions, 3u);
}

TEST(Device, DivergentLoadDetected) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(1 << 16);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 32; ++i) addrs[i] = data.element_addr(i * 1000);
    w.touch(full_mask(32), addrs, 8);
  });
  EXPECT_EQ(metrics.loads, 1u);
  EXPECT_EQ(metrics.divergent_loads, 1u);
  EXPECT_EQ(metrics.transactions, 32u);
}

TEST(Device, CoalescedLoadNotDivergent) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint32_t>(32);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 32; ++i) addrs[i] = data.element_addr(i);
    w.touch(full_mask(32), addrs, 4);
  });
  EXPECT_EQ(metrics.divergent_loads, 0u);
}

TEST(Device, RepeatedAccessHitsCache) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(16);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 16; ++i) addrs[i] = data.element_addr(i);
    w.touch(full_mask(16), addrs, 8);  // cold: DRAM
    w.touch(full_mask(16), addrs, 8);  // warm: read-only cache
  });
  EXPECT_GT(metrics.dram_transactions, 0u);
  EXPECT_GT(metrics.readonly_hits, 0u);
}

TEST(Device, ConstantSpaceUsesConstantCache) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.const_malloc<std::uint32_t>(64);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    for (unsigned i = 0; i < 32; ++i) addrs[i] = data.element_addr(i);
    w.touch(full_mask(32), addrs, 4);
    w.touch(full_mask(32), addrs, 4);
  });
  EXPECT_GT(metrics.const_hits, 0u);
  EXPECT_EQ(metrics.readonly_hits, 0u);  // constant space never uses RO cache
}

TEST(Device, FlushCachesForcesMisses) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(16);
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 16; ++i) addrs[i] = data.element_addr(i);

  dev.launch(1, [&](WarpCtx& w) { w.touch(full_mask(16), addrs, 8); });
  dev.flush_caches();
  const auto metrics = dev.launch(1, [&](WarpCtx& w) { w.touch(full_mask(16), addrs, 8); });
  EXPECT_EQ(metrics.readonly_hits, 0u);
  EXPECT_EQ(metrics.l2_hits, 0u);
  EXPECT_GT(metrics.dram_transactions, 0u);
}

TEST(Device, ScatterWritesValues) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(8);
  dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    std::array<std::uint64_t, 32> vals{};
    for (unsigned i = 0; i < 8; ++i) {
      addrs[i] = data.element_addr(i);
      vals[i] = 100 + i;
    }
    w.scatter<std::uint64_t>(full_mask(8), addrs,
                             std::span<const std::uint64_t>(vals.data(), 32));
  });
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(mem.read<std::uint64_t>(data.element_addr(i)), 100u + i);
  }
}

TEST(Device, InactiveLanesUntouchedByGather) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(4);
  mem.write(data.element_addr(0), std::uint64_t{5});
  std::array<std::uint64_t, 32> got{};
  got.fill(999);
  dev.launch(1, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    addrs[0] = data.element_addr(0);
    w.gather<std::uint64_t>(lane_bit(0), addrs, got);
  });
  EXPECT_EQ(got[0], 5u);
  EXPECT_EQ(got[1], 999u);  // inactive lane untouched
}

TEST(Device, WorkerExceptionRethrownOnCallerForLowestWarp) {
  // One warp per SM, so one wave. Warps 1 and 2 throw; the launch
  // rethrows warp 1's exception on the caller. When the pool has threads,
  // the caller holds its task of another SM until warp 1 has run, so a
  // pool thread runs it (unless the caller claimed SM 1 itself: retry).
  Device dev(tiny_spec());
  const auto caller = std::this_thread::get_id();
  const bool pool_threads = std::thread::hardware_concurrency() > 1;
  bool thrown_off_caller = false;
  for (int attempt = 0; attempt < 20 && !thrown_off_caller; ++attempt) {
    std::atomic<bool> reached{false};
    std::atomic<bool> off_caller{false};
    try {
      dev.launch(4, [&](WarpCtx& w) {
        w.compute(full_mask(32));
        const bool on_caller = std::this_thread::get_id() == caller;
        if (w.warp_id() == 1) {
          off_caller = !on_caller;
          reached = true;
        }
        if (w.warp_id() == 1 || w.warp_id() == 2) {
          throw std::runtime_error("warp " + std::to_string(w.warp_id()));
        }
        if (pool_threads && on_caller) {
          const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!reached && std::chrono::steady_clock::now() < give_up) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
        }
      });
      ADD_FAILURE() << "launch did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "warp 1");
    }
    thrown_off_caller = off_caller;
  }
  if (pool_threads) {
    EXPECT_TRUE(thrown_off_caller);
  }
}

TEST(Device, StalledThreadsBlockRunsElsewhere) {
  // Eight SMs, one warp each: with four workers each owns a block of two
  // SMs. The first warp that runs off the caller stalls until every other
  // warp has run, so the rest of its thread's block must run elsewhere.
  DeviceSpec spec = tiny_spec();
  spec.num_sms = 8;
  Device dev(spec);
  const auto caller = std::this_thread::get_id();
  std::atomic<unsigned> ran{0};
  std::atomic<bool> stalled{false};
  std::atomic<bool> others_ran{false};
  const auto metrics = dev.launch(8, [&](WarpCtx& w) {
    w.compute(full_mask(32));
    if (std::this_thread::get_id() != caller && !stalled.exchange(true)) {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ran < 7 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      others_ran = ran == 7;
    }
    ++ran;
  });
  EXPECT_EQ(metrics.warps, 8u);
  EXPECT_EQ(ran, 8u);
  if (stalled) {
    EXPECT_TRUE(others_ran);
  }
}

TEST(Device, LaunchAfterWarpExceptionsInLaterWaves) {
  // Exceptions in several SMs and waves: the lowest warp's is rethrown,
  // and the device serves the next launch with exact counters.
  Device dev(tiny_spec());
  EXPECT_THROW(
      {
        try {
          dev.launch(1000, [](WarpCtx& w) {
            w.compute(full_mask(32));
            if (w.warp_id() == 370 || w.warp_id() == 501 || w.warp_id() == 902) {
              throw std::runtime_error("warp " + std::to_string(w.warp_id()));
            }
          });
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "warp 370");
          throw;
        }
      },
      std::runtime_error);
  const auto metrics = dev.launch(64, [](WarpCtx& w) { w.compute(full_mask(32)); });
  EXPECT_EQ(metrics.warps, 64u);
  EXPECT_EQ(metrics.steps, 64u);
  for (unsigned sm = 0; sm < 4; ++sm) EXPECT_EQ(metrics.sm_resident_warps[sm], 16u);
}

TEST(Device, OutOfRangeGatherThrowsOnCaller) {
  Device dev(tiny_spec());
  auto data = dev.memory().malloc<std::uint64_t>(8);
  EXPECT_THROW(dev.launch(64,
                          [&](WarpCtx& w) {
                            std::array<std::uint64_t, 32> addrs{};
                            std::array<std::uint64_t, 32> out{};
                            addrs[0] = w.warp_id() == 45 ? (std::uint64_t{1} << 40)
                                                         : data.element_addr(0);
                            w.gather<std::uint64_t>(lane_bit(0), addrs, out);
                          }),
               ContractViolation);
  const auto metrics = dev.launch(8, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> addrs{};
    std::array<std::uint64_t, 32> out{};
    addrs[0] = data.element_addr(w.warp_id());
    w.gather<std::uint64_t>(lane_bit(0), addrs, out);
  });
  EXPECT_EQ(metrics.loads, 8u);
}

TEST(DeviceSpecValidation, PresetsAreValid) {
  EXPECT_NO_THROW(titan_v().validate());
  EXPECT_NO_THROW(tesla_k80().validate());
}

TEST(DeviceSpecValidation, BadSpecsRejectedAtConstruction) {
  auto bad = tiny_spec();
  bad.warp_size = 0;
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.warp_size = 64;
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.num_sms = 0;
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.line_bytes = 100;  // not a power of two
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.clock_ghz = 0.0;
  EXPECT_THROW(Device{bad}, ContractViolation);
}

}  // namespace
}  // namespace harmonia::gpusim
