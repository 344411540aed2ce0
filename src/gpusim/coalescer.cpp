#include "gpusim/coalescer.hpp"

#include <bit>

namespace harmonia::gpusim {

LineSet coalesce(std::span<const std::uint64_t> addrs, LaneMask active, unsigned bytes_per_lane,
                 unsigned line_bytes) {
  HARMONIA_CHECK(bytes_per_lane > 0);
  HARMONIA_CHECK(line_bytes > 0);
  HARMONIA_CHECK(std::has_single_bit(line_bytes));
  HARMONIA_CHECK(bytes_per_lane <= line_bytes);
  HARMONIA_CHECK(addrs.size() <= 32);
  const auto shift = static_cast<unsigned>(std::countr_zero(line_bytes));
  LineSet lines;
  if (addrs.empty()) return lines;
  for (LaneMask m = active & full_mask(static_cast<unsigned>(addrs.size())); m != 0;
       m &= m - 1) {
    const std::uint64_t addr = addrs[static_cast<unsigned>(std::countr_zero(m))];
    const std::uint64_t first = addr >> shift;
    const std::uint64_t last = (addr + bytes_per_lane - 1) >> shift;
    lines.insert(first);
    if (last != first) lines.insert(last);
  }
  return lines;
}

}  // namespace harmonia::gpusim
