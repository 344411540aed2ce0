// Per-warp memory coalescing: groups the active lanes' byte ranges into
// the minimal set of cache-line transactions, exactly as the hardware
// memory controller does for a warp-wide load (CUDA programming guide,
// "coalesced access": addresses falling in one line are served by a
// single transaction).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/expect.hpp"
#include "gpusim/lane_mask.hpp"

namespace harmonia::gpusim {

/// Most lines one warp access can touch: 32 lanes, each reading at most
/// line_bytes and so spanning at most two lines.
inline constexpr unsigned kMaxWarpLines = 64;

/// The distinct line addresses of one warp access, ascending. Fixed
/// capacity, so a warp access never touches the heap.
class LineSet {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t operator[](std::size_t i) const {
    HARMONIA_DCHECK(i < size_);
    return lines_[i];
  }
  const std::uint64_t* begin() const { return lines_.data(); }
  const std::uint64_t* end() const { return lines_.data() + size_; }

  /// Ordered insertion with dedupe. Appending is the common case: a
  /// group's lanes read ascending slots.
  void insert(std::uint64_t line) {
    if (size_ == 0 || lines_[size_ - 1] < line) {
      HARMONIA_DCHECK(size_ < kMaxWarpLines);
      lines_[size_++] = line;
      return;
    }
    unsigned pos = size_;
    while (pos > 0 && lines_[pos - 1] > line) --pos;
    if (pos > 0 && lines_[pos - 1] == line) return;
    HARMONIA_DCHECK(size_ < kMaxWarpLines);
    for (unsigned i = size_; i > pos; --i) lines_[i] = lines_[i - 1];
    lines_[pos] = line;
    ++size_;
  }

 private:
  // Not zeroed: only [0, size_) is ever read, and clearing 512 B made a
  // coalesce call ~25% slower (micro_gpusim BM_CoalesceSequential).
  std::array<std::uint64_t, kMaxWarpLines> lines_;
  unsigned size_ = 0;
};

/// Computes the distinct line addresses (addr / line_bytes) touched by the
/// active lanes. Each lane reads `bytes_per_lane` starting at addrs[lane];
/// an access straddling a line boundary contributes both lines. At most 32
/// lanes, bytes_per_lane <= line_bytes, and line_bytes a power of two.
/// The ascending order is part of the model: it fixes the order in which
/// the caches' LRU state is touched.
LineSet coalesce(std::span<const std::uint64_t> addrs, LaneMask active, unsigned bytes_per_lane,
                 unsigned line_bytes);

}  // namespace harmonia::gpusim
