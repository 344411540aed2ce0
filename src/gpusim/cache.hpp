// Set-associative LRU cache model, keyed by line address.
//
// Used for the L2 (device-wide), the per-SM read-only data cache, and the
// per-SM constant cache. Only tags are tracked — data always lives in
// Memory — so a Cache is cheap enough to instantiate per SM. Tags and LRU
// stamps live in two flat arrays (row-major by set) so the hit scan reads
// tags only.
#pragma once

#include <cstdint>
#include <vector>

namespace harmonia::gpusim {

class Cache {
 public:
  /// `bytes` is the capacity; `line_bytes` the fill granularity;
  /// `ways` the associativity. bytes must be a multiple of line_bytes*ways.
  Cache(std::uint64_t bytes, unsigned line_bytes, unsigned ways);

  /// Probes and fills: returns true on hit. A miss evicts the first way
  /// with the smallest LRU stamp and inserts.
  bool access(std::uint64_t line_addr) {
    const std::size_t base = set_index(line_addr) * ways_;
    std::uint64_t* tags = tags_.data() + base;
    std::uint64_t* lru = lru_.data() + base;
    ++tick_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (tags[w] == line_addr) {
        lru[w] = tick_;
        ++hits_;
        return true;
      }
    }
    unsigned victim = 0;
    for (unsigned w = 1; w < ways_; ++w) {
      if (lru[w] < lru[victim]) victim = w;
    }
    ++misses_;
    tags[victim] = line_addr;
    lru[victim] = tick_;
    return false;
  }

  /// Probe without fill (used by tests).
  bool contains(std::uint64_t line_addr) const;

  void flush();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  void reset_stats() { hits_ = misses_ = 0; }

  /// Back to construction state: cold tags and zeroed counters (the
  /// fault-audit path resets caches after a device re-image).
  void reset() {
    flush();
    reset_stats();
  }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  /// line_addr is already line-granular (addr / line_bytes from the
  /// coalescer), so a modulo distributes consecutive lines across sets; a
  /// power-of-two set count takes the equivalent mask.
  std::size_t set_index(std::uint64_t line_addr) const {
    return static_cast<std::size_t>(sets_pow2_ ? line_addr & (num_sets_ - 1)
                                               : line_addr % num_sets_);
  }

  unsigned line_bytes_;
  unsigned ways_;
  std::size_t num_sets_;
  bool sets_pow2_;
  std::uint64_t capacity_bytes_;
  std::vector<std::uint64_t> tags_;  // num_sets_ * ways_, row-major by set
  std::vector<std::uint64_t> lru_;   // stamp of each tag's last access
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace harmonia::gpusim
