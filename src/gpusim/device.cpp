#include "gpusim/device.hpp"

#include <algorithm>
#include <mutex>

#include "gpusim/warp_log.hpp"
#include "gpusim/warp_pool.hpp"

namespace harmonia::gpusim {

namespace {
/// Constant caches are small; 2 KiB per SM models the 8 KiB broadcast
/// cache conservatively sliced for our working set.
constexpr std::uint64_t kConstCacheBytes = 2 << 10;
/// Warps per SM in one launch wave. Bounds the wave logs; small enough
/// that most of phase B overlaps the next wave's phase A.
constexpr std::uint64_t kWaveWarpsPerSm = 4;
}  // namespace

Device::Device(DeviceSpec spec)
    : spec_((spec.validate(), std::move(spec))),
      memory_(spec_.global_mem_bytes, spec_.const_mem_bytes),
      l2_(spec_.l2_bytes, spec_.line_bytes, spec_.cache_ways) {
  lanes_.reserve(spec_.num_sms);
  for (unsigned sm = 0; sm < spec_.num_sms; ++sm) {
    lanes_.emplace_back(
        Cache(spec_.readonly_cache_bytes_per_sm, spec_.line_bytes, spec_.cache_ways),
        Cache(kConstCacheBytes, spec_.line_bytes, spec_.cache_ways));
  }
  replay_next_.resize(spec_.num_sms);
}

Device::~Device() = default;

Cache& Device::readonly_cache(unsigned sm) {
  HARMONIA_CHECK(sm < lanes_.size());
  return lanes_[sm].readonly;
}

Cache& Device::const_cache(unsigned sm) {
  HARMONIA_CHECK(sm < lanes_.size());
  return lanes_[sm].constant;
}

void Device::flush_caches() {
  l2_.flush();
  for (detail::SmLane& lane : lanes_) {
    lane.readonly.flush();
    lane.constant.flush();
  }
}

KernelMetrics Device::launch(std::uint64_t num_warps, const WarpKernel& kernel) {
  HARMONIA_CHECK(num_warps > 0);
  const unsigned sms = spec_.num_sms;
  KernelMetrics metrics;
  metrics.sm_compute_cycles.assign(sms, 0);
  metrics.sm_mem_cycles.assign(sms, 0);
  metrics.sm_resident_warps.assign(sms, 0);
  for (detail::SmLane& lane : lanes_) {
    lane.counters = KernelMetrics{};
    lane.compute_cycles = 0;
    lane.mem_cycles = 0;
  }
  const bool trace = trace_.enabled();

  // Wave k runs phase A on the pool (tasks = SMs) into log k % 2 while
  // the caller replays wave k - 1 from the other log.
  const std::uint64_t wave = std::uint64_t{sms} * kWaveWarpsPerSm;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  unsigned log = 0;
  auto task = [&](unsigned sm) { run_sm(kernel, sm, begin, end, log, trace); };

  WarpPool& pool = WarpPool::instance();
  const std::lock_guard lock(pool.launch_mutex());
  bool in_flight = false;
  try {
    for (std::uint64_t k = 0; k * wave < num_warps; ++k) {
      begin = k * wave;
      end = std::min(num_warps, begin + wave);
      log = static_cast<unsigned>(k & 1);
      pool.post(static_cast<unsigned>(std::min<std::uint64_t>(sms, end - begin)), task);
      in_flight = true;
      if (k > 0) replay_wave(begin - wave, begin, log ^ 1, metrics);
      pool.finish();
      in_flight = false;
      rethrow_first_error();
    }
    replay_wave(begin, end, log, metrics);
  } catch (...) {
    // No task may outlive this frame; the next launch starts clean.
    if (in_flight) pool.finish();
    for (detail::SmLane& lane : lanes_) lane.error = nullptr;
    throw;
  }

  for (unsigned sm = 0; sm < sms; ++sm) {
    const detail::SmLane& lane = lanes_[sm];
    metrics.merge(lane.counters);  // scalar counters only: its SM vectors are empty
    metrics.sm_compute_cycles[sm] = lane.compute_cycles;
    metrics.sm_mem_cycles[sm] += lane.mem_cycles;
    metrics.sm_resident_warps[sm] = lane.counters.warps;
  }
  return metrics;
}

void Device::run_sm(const WarpKernel& kernel, unsigned sm, std::uint64_t begin,
                    std::uint64_t end, unsigned log, bool trace) {
  detail::SmLane& lane = lanes_[sm];
  detail::WaveLog& wl = lane.logs[log];
  wl.events.clear();
  wl.l2_lines.clear();
  // `begin` is a multiple of num_sms, so these are exactly the wave's
  // warps that round-robin assigns to `sm`.
  for (std::uint64_t w = begin + sm; w < end; w += spec_.num_sms) {
    WarpCtx ctx(*this, w, sm, lane, wl, trace);
    try {
      kernel(ctx);
    } catch (...) {
      lane.error = std::current_exception();
      lane.error_warp = w;
      return;
    }
    ++lane.counters.warps;
  }
}

void Device::rethrow_first_error() {
  detail::SmLane* first = nullptr;
  for (detail::SmLane& lane : lanes_) {
    if (lane.error && (first == nullptr || lane.error_warp < first->error_warp)) first = &lane;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

void Device::replay_wave(std::uint64_t begin, std::uint64_t end, unsigned log,
                         KernelMetrics& metrics) {
  const bool trace = trace_.enabled();
  std::fill(replay_next_.begin(), replay_next_.end(), 0);
  auto sm = static_cast<unsigned>(begin % spec_.num_sms);
  for (std::uint64_t w = begin; w < end; ++w, sm = sm + 1 == spec_.num_sms ? 0 : sm + 1) {
    const detail::WaveLog& wl = lanes_[sm].logs[log];
    std::size_t& next = replay_next_[sm];
    for (; next < wl.events.size() && wl.events[next].warp == w; ++next) {
      const detail::LoggedEvent& e = wl.events[next];
      std::uint64_t cycles = e.cycles;
      ServedBy level = e.worst_level;
      if (e.l2_lines > 0) {
        // The same slowest-line rule as a sequential walk of the line
        // set: the largest latency wins, ties go to the later line.
        std::uint64_t worst = e.worst_latency;
        unsigned rank = e.worst_rank;
        for (unsigned i = 0; i < e.l2_lines; ++i) {
          const detail::L2Line& l = wl.l2_lines[e.first_l2 + i];
          std::uint64_t lat;
          ServedBy served;
          if (l2_.access(l.line)) {
            ++metrics.l2_hits;
            lat = spec_.lat_l2;
            served = ServedBy::kL2;
          } else {
            ++metrics.dram_transactions;
            lat = spec_.lat_dram;
            served = ServedBy::kDram;
          }
          if (lat > worst || (lat == worst && l.rank > rank)) {
            worst = lat;
            rank = l.rank;
            level = served;
          }
        }
        cycles = worst + static_cast<std::uint64_t>(e.lines - 1) * spec_.txn_issue_cycles;
        metrics.sm_mem_cycles[sm] += cycles;
      }
      if (trace) trace_.record({e.warp, sm, e.kind, e.mask, e.lines, level, cycles});
    }
  }
}

unsigned WarpCtx::warp_size() const { return device_.spec_.warp_size; }

const DeviceSpec& WarpCtx::spec() const { return device_.spec_; }

void WarpCtx::compute(LaneMask active, unsigned steps) {
  HARMONIA_DCHECK(active != 0);
  KernelMetrics& m = lane_.counters;
  m.steps += steps;
  if (active == full_mask(warp_size())) m.coherent_steps += steps;
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(steps) * device_.spec_.cycles_per_compute_step;
  lane_.compute_cycles += cycles;
  if (trace_) log_.events.push_back({.warp = warp_id_, .cycles = cycles, .mask = active});
}

void WarpCtx::touch(LaneMask active, std::span<const std::uint64_t> addrs,
                    unsigned bytes_per_lane) {
  account_access(active, addrs, bytes_per_lane, TraceEventKind::kLoad);
}

void WarpCtx::account_access(LaneMask active, std::span<const std::uint64_t> addrs,
                             unsigned bytes_per_lane, TraceEventKind kind) {
  if (active == 0) return;
  KernelMetrics& m = lane_.counters;
  const DeviceSpec& spec = device_.spec_;

  const auto lines = coalesce(addrs, active, bytes_per_lane, spec.line_bytes);
  HARMONIA_DCHECK(!lines.empty());

  ++m.loads;
  if (lines.size() > 1) ++m.divergent_loads;
  m.transactions += lines.size();

  // The warp's load completes when its slowest line is served; additional
  // transactions serialize in the load/store unit. The per-SM cache
  // answers here; the lines it misses go to the shared L2 in global warp
  // order (Device::replay_wave), which finishes the access.
  std::uint32_t worst_latency = 0;
  std::uint8_t worst_rank = 0;
  ServedBy worst_level = ServedBy::kNone;
  const auto first_l2 = static_cast<std::uint32_t>(log_.l2_lines.size());
  // Line addresses of constant space retain the kConstBase tag, so the
  // two spaces never alias in the shared L2.
  const std::uint64_t const_line = kConstBase / spec.line_bytes;
  Cache& readonly = lane_.readonly;
  Cache& constant = lane_.constant;
  std::uint8_t rank = 0;
  for (std::uint64_t line : lines) {
    ++rank;
    std::uint32_t lat;
    ServedBy level;
    if (line >= const_line) {
      if (!constant.access(line)) {
        log_.l2_lines.push_back({line, rank});
        continue;
      }
      ++m.const_hits;
      lat = spec.lat_const;
      level = ServedBy::kConst;
    } else {
      if (!readonly.access(line)) {
        log_.l2_lines.push_back({line, rank});
        continue;
      }
      ++m.readonly_hits;
      lat = spec.lat_readonly;
      level = ServedBy::kReadOnly;
    }
    if (lat >= worst_latency) {
      worst_latency = lat;
      worst_rank = rank;
      worst_level = level;
    }
  }
  const auto l2_lines = static_cast<std::uint8_t>(log_.l2_lines.size() - first_l2);
  std::uint64_t cycles = 0;
  if (l2_lines == 0) {
    cycles = worst_latency + static_cast<std::uint64_t>(lines.size() - 1) * spec.txn_issue_cycles;
    lane_.mem_cycles += cycles;
    if (!trace_) return;
  }
  log_.events.push_back({.warp = warp_id_,
                         .cycles = cycles,
                         .mask = active,
                         .first_l2 = first_l2,
                         .worst_latency = worst_latency,
                         .worst_rank = worst_rank,
                         .worst_level = worst_level,
                         .lines = static_cast<std::uint8_t>(lines.size()),
                         .l2_lines = l2_lines,
                         .kind = kind});
}

}  // namespace harmonia::gpusim
