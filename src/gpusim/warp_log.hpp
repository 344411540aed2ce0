// Launch bookkeeping shared by Device::launch and WarpCtx: the per-SM
// counters of phase A and the wave logs phase B replays (device.cpp).
#pragma once

#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/lane_mask.hpp"
#include "gpusim/metrics.hpp"
#include "gpusim/trace.hpp"

namespace harmonia::gpusim::detail {

/// One warp event logged while the warp runs (launch phase A) and
/// finished in global warp order (phase B). Accesses with lines that
/// missed the per-SM cache are always logged; with tracing on, every
/// event is, so the trace keeps its order.
struct LoggedEvent {
  std::uint64_t warp = 0;
  /// Charged cycles when known in phase A (compute steps, accesses served
  /// wholly by the per-SM cache); phase B computes the others.
  std::uint64_t cycles = 0;
  LaneMask mask = 0;
  /// This access's L2 lines: WaveLog::l2_lines[first_l2, first_l2 + l2_lines).
  std::uint32_t first_l2 = 0;
  /// Slowest line the per-SM cache served, its 1-based position in the
  /// line set (0: none), and its level.
  std::uint32_t worst_latency = 0;
  std::uint8_t worst_rank = 0;
  ServedBy worst_level = ServedBy::kNone;
  std::uint8_t lines = 0;
  std::uint8_t l2_lines = 0;
  TraceEventKind kind = TraceEventKind::kCompute;
};

/// A line the per-SM cache missed, with its 1-based position in the
/// access's line set (the slowest-line rule breaks ties by position).
struct L2Line {
  std::uint64_t line = 0;
  std::uint32_t rank = 0;
};

/// Cache-line aligned: phase A grows one wave's log while phase B reads
/// the other's.
struct alignas(64) WaveLog {
  std::vector<LoggedEvent> events;
  std::vector<L2Line> l2_lines;
};

/// One SM: its caches and its launch state. Only the thread running the
/// SM's task of the current wave touches it, except the wave log phase B
/// reads. Cache-line aligned, so SMs on different threads share no line.
struct alignas(64) SmLane {
  SmLane(Cache readonly_cache, Cache const_cache)
      : readonly(std::move(readonly_cache)), constant(std::move(const_cache)) {}

  Cache readonly;
  Cache constant;
  /// Phase-A counters (l2_hits and dram_transactions stay 0).
  KernelMetrics counters;
  std::uint64_t compute_cycles = 0;
  /// Memory cycles known in phase A.
  std::uint64_t mem_cycles = 0;
  /// Waves alternate between the two logs: phase B replays one while
  /// the next wave fills the other.
  WaveLog logs[2];
  /// First warp of this SM that threw in the current wave, if any.
  std::uint64_t error_warp = 0;
  std::exception_ptr error;
};

}  // namespace harmonia::gpusim::detail
