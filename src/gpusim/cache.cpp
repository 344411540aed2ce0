#include "gpusim/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/expect.hpp"

namespace harmonia::gpusim {

Cache::Cache(std::uint64_t bytes, unsigned line_bytes, unsigned ways)
    : line_bytes_(line_bytes), ways_(ways), capacity_bytes_(bytes) {
  HARMONIA_CHECK(line_bytes > 0 && ways > 0);
  HARMONIA_CHECK_MSG(bytes % (static_cast<std::uint64_t>(line_bytes) * ways) == 0,
                     "cache capacity must be a multiple of line_bytes*ways");
  num_sets_ = bytes / line_bytes / ways;
  HARMONIA_CHECK(num_sets_ > 0);
  sets_pow2_ = std::has_single_bit(num_sets_);
  tags_.assign(num_sets_ * ways_, kInvalid);
  lru_.assign(num_sets_ * ways_, 0);
}

bool Cache::contains(std::uint64_t line_addr) const {
  const std::uint64_t* tags = tags_.data() + set_index(line_addr) * ways_;
  return std::find(tags, tags + ways_, line_addr) != tags + ways_;
}

void Cache::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalid);
  std::fill(lru_.begin(), lru_.end(), 0);
  tick_ = 0;
}

}  // namespace harmonia::gpusim
