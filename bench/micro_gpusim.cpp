// Microbenchmarks of the GPU-simulator primitives (host cost of the
// simulation itself, not simulated GPU time): coalescer, cache probes,
// warp gathers, kernel launch. The per-warp access path allocates nothing:
// the coalescer fills a fixed-capacity LineSet on the stack, the cache
// scans a flat tag array, and typed reads are inline fixed-size copies.
#include <benchmark/benchmark.h>

#include <array>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device.hpp"

namespace {

using namespace harmonia;
using namespace harmonia::gpusim;

// Ascending lanes, two lines: every insert is an append or a duplicate.
void BM_CoalesceSequential(benchmark::State& state) {
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = 4096 + i * 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coalesce(addrs, full_mask(32), 8, 128));
  }
}
BENCHMARK(BM_CoalesceSequential);

// 32 random lanes: 32 distinct lines, most inserts shift the tail.
void BM_CoalesceScattered(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 28);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coalesce(addrs, full_mask(32), 8, 128));
  }
}
BENCHMARK(BM_CoalesceScattered);

// 1 MiB, 8-way (1024 sets, mask indexing): the hit scan over tags only.
void BM_CacheAccessHit(benchmark::State& state) {
  Cache cache(1 << 20, 128, 8);
  for (std::uint64_t line = 0; line < 64; ++line) cache.access(line);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line));
    line = (line + 1) % 64;
  }
}
BENCHMARK(BM_CacheAccessHit);

// Every access misses: tag scan plus the first-oldest victim scan.
void BM_CacheAccessMissStream(benchmark::State& state) {
  Cache cache(1 << 20, 128, 8);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line));
    line += 9973;  // always a fresh line
  }
}
BENCHMARK(BM_CacheAccessMissStream);

// One-warp launch doing one 32-lane u64 gather: coalesce, cache walk and
// inline reads. Arg = lane stride in elements (1: 2 lines, 64: 32 lines).
void BM_WarpGather(benchmark::State& state) {
  auto spec = titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 64 << 20;
  Device dev(spec);
  auto data = dev.memory().malloc<std::uint64_t>(1 << 20);
  const auto span_size = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t offset = 0;
  for (auto _ : state) {
    dev.launch(1, [&](WarpCtx& w) {
      std::array<std::uint64_t, 32> addrs{};
      std::array<std::uint64_t, 32> out{};
      for (unsigned i = 0; i < 32; ++i) {
        addrs[i] = data.element_addr((offset + i * span_size) % (1 << 20));
      }
      w.gather<std::uint64_t>(full_mask(32), addrs, out);
      benchmark::DoNotOptimize(out);
    });
    offset += 13;
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpGather)->Arg(1)->Arg(64);

// Launch overhead per warp (std::function call, per-SM metrics) with a
// single compute step and no memory access.
void BM_KernelLaunch(benchmark::State& state) {
  auto spec = titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 16 << 20;
  Device dev(spec);
  const auto warps = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto metrics = dev.launch(warps, [](WarpCtx& w) { w.compute(full_mask(32)); });
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(warps));
}
BENCHMARK(BM_KernelLaunch)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
