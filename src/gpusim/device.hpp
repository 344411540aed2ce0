// The simulated GPU device and the SIMT warp execution context.
//
// Kernels are written as per-warp C++ callables against WarpCtx, a
// warp-synchronous API: every data access goes through gather()/touch()
// (which runs the coalescer and the cache hierarchy and charges cycles),
// and every instruction issue goes through compute() with an explicit
// active-lane mask (which feeds the warp-coherence metric). This keeps
// simulated kernels structurally identical to their CUDA counterparts
// while making divergence and memory behaviour observable.
//
// Warps run on several host threads (Device::launch), so a kernel keeps
// per-warp state only: no warp of a launch reads what another warp of the
// same launch wrote, and shared tallies are atomics added once per warp.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/lane_mask.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/metrics.hpp"
#include "gpusim/trace.hpp"

namespace harmonia::gpusim {

class Device;

namespace detail {
struct SmLane;
struct WaveLog;
}  // namespace detail

/// Execution context handed to a kernel, one per warp. Not copyable; only
/// Device::launch creates these.
class WarpCtx {
 public:
  WarpCtx(const WarpCtx&) = delete;
  WarpCtx& operator=(const WarpCtx&) = delete;

  std::uint64_t warp_id() const { return warp_id_; }
  unsigned sm_id() const { return sm_id_; }
  unsigned warp_size() const;
  const DeviceSpec& spec() const;

  /// Issues `steps` SIMT instruction steps with the given active mask.
  /// A step is coherent iff every lane of the warp is active.
  void compute(LaneMask active, unsigned steps = 1);

  /// Warp-wide load: coalesces the active lanes' addresses, walks the
  /// cache hierarchy per line, charges memory cycles, and reads the data
  /// into `out[lane]` for each active lane (inactive lanes untouched).
  template <typename T>
  void gather(LaneMask active, std::span<const std::uint64_t> addrs, std::span<T> out);

  /// Accounting-only warp load (no data movement) for accesses whose
  /// values the kernel computes another way.
  void touch(LaneMask active, std::span<const std::uint64_t> addrs, unsigned bytes_per_lane);

  /// Warp-wide store to global memory (one value per active lane).
  template <typename T>
  void scatter(LaneMask active, std::span<const std::uint64_t> addrs,
               std::span<const T> values);

 private:
  friend class Device;
  WarpCtx(Device& device, std::uint64_t warp_id, unsigned sm_id, detail::SmLane& lane,
          detail::WaveLog& log, bool trace)
      : device_(device), lane_(lane), log_(log), warp_id_(warp_id), sm_id_(sm_id),
        trace_(trace) {}

  /// Runs a warp access through the coalescer and the per-SM cache; lines
  /// that missed it are logged for the L2 replay.
  void account_access(LaneMask active, std::span<const std::uint64_t> addrs,
                      unsigned bytes_per_lane, TraceEventKind kind);

  Device& device_;
  detail::SmLane& lane_;
  detail::WaveLog& log_;
  std::uint64_t warp_id_;
  unsigned sm_id_;
  bool trace_;
};

using WarpKernel = std::function<void(WarpCtx&)>;

class Device {
 public:
  explicit Device(DeviceSpec spec);
  ~Device();

  const DeviceSpec& spec() const { return spec_; }
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }

  /// Runs `kernel` once per warp. Warps are assigned to SMs round-robin.
  /// Each wave of warps runs on up to four host threads, SM by SM in
  /// ascending warp id (per-SM caches); the caller then replays the L2
  /// accesses in global warp order, so counters, cache states and trace
  /// events equal a one-warp-at-a-time run (DESIGN.md §5). If warps throw,
  /// the exception of the lowest such warp is rethrown here; the caches
  /// are then valid but unspecified.
  KernelMetrics launch(std::uint64_t num_warps, const WarpKernel& kernel);

  /// Empties all caches (between unrelated experiments).
  void flush_caches();

  Cache& l2() { return l2_; }
  Cache& readonly_cache(unsigned sm);
  Cache& const_cache(unsigned sm);

  /// Per-warp execution trace (off by default; see gpusim/trace.hpp).
  Trace& trace() { return trace_; }

 private:
  friend class WarpCtx;

  /// Phase A of one wave on SM `sm`: its warps in [begin, end), ascending.
  void run_sm(const WarpKernel& kernel, unsigned sm, std::uint64_t begin, std::uint64_t end,
              unsigned log, bool trace);
  /// Phase B of one wave: L2 probes, access cycles and trace events in
  /// global warp order.
  void replay_wave(std::uint64_t begin, std::uint64_t end, unsigned log,
                   KernelMetrics& metrics);
  /// Rethrows the exception of the wave's lowest failed warp, if any.
  void rethrow_first_error();

  DeviceSpec spec_;
  Memory memory_;
  Cache l2_;
  std::vector<detail::SmLane> lanes_;  // one per SM
  /// Phase B's position in each SM's wave log; only the caller touches it.
  std::vector<std::size_t> replay_next_;
  Trace trace_;
};

// ---- template implementations ----

template <typename T>
void WarpCtx::gather(LaneMask active, std::span<const std::uint64_t> addrs,
                     std::span<T> out) {
  HARMONIA_DCHECK(addrs.size() <= warp_size());
  HARMONIA_DCHECK(out.size() >= addrs.size());
  account_access(active, addrs, sizeof(T), TraceEventKind::kLoad);
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (lane_active(active, lane)) out[lane] = device_.memory().read<T>(addrs[lane]);
  }
}

template <typename T>
void WarpCtx::scatter(LaneMask active, std::span<const std::uint64_t> addrs,
                      std::span<const T> values) {
  HARMONIA_DCHECK(addrs.size() <= warp_size());
  account_access(active, addrs, sizeof(T), TraceEventKind::kStore);
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (lane_active(active, lane)) device_.memory().write<T>(addrs[lane], values[lane]);
  }
}

}  // namespace harmonia::gpusim
