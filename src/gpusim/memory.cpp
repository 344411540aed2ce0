#include "gpusim/memory.hpp"

#include <algorithm>

namespace harmonia::gpusim {

namespace {
constexpr std::uint64_t kAlign = 256;

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

Memory::Memory(std::uint64_t global_bytes, std::uint64_t const_bytes)
    : const_(const_bytes), global_capacity_(global_bytes) {
  // Address 0 acts as the null device pointer: burn the first alignment unit.
  global_used_ = kAlign;
}

std::uint64_t Memory::reserve_bytes(std::uint64_t bytes, bool constant) {
  HARMONIA_CHECK(bytes > 0);
  if (constant) {
    const std::uint64_t base = round_up(const_used_, kAlign);
    HARMONIA_CHECK_MSG(base + bytes <= const_.size(),
                       "constant segment overflow: need " << bytes << " B at offset " << base
                                                          << ", capacity " << const_.size());
    std::memset(const_.data() + const_used_, 0, base - const_used_);
    const_used_ = base + bytes;
    return kConstBase + base;
  }
  const std::uint64_t base = round_up(global_used_, kAlign);
  HARMONIA_CHECK_MSG(base + bytes <= global_capacity_,
                     "global segment overflow: need " << bytes << " B at offset " << base
                                                      << ", capacity " << global_capacity_);
  global_used_ = base + bytes;
  const std::uint64_t committed = global_.size();
  if (global_.capacity() < global_used_) {
    // Grow the capacity geometrically. After free_all the size restarts
    // small, so the vector's own growth would reallocate to an exact fit
    // whenever the next image is a little larger than the last.
    global_.reserve(std::min(global_capacity_,
                             std::max<std::uint64_t>(global_used_, 2 * global_.capacity())));
  }
  global_.resize(global_used_);
  std::memset(global_.data() + committed, 0, base - committed);
  return base;
}

std::uint64_t Memory::alloc_bytes(std::uint64_t bytes, bool constant) {
  const std::uint64_t addr = reserve_bytes(bytes, constant);
  std::memset(constant ? const_.data() + (addr - kConstBase) : global_.data() + addr, 0, bytes);
  return addr;
}

std::uint64_t Memory::upload_bytes(const void* src, std::uint64_t bytes) {
  const std::uint64_t addr = reserve_bytes(bytes, /*constant=*/false);
  std::memcpy(global_.data() + addr, src, bytes);
  return addr;
}

void Memory::free_all() {
  global_used_ = kAlign;
  const_used_ = 0;
  // The backing store keeps its capacity, so the next image regrows into
  // memory already committed instead of through a reallocation cascade.
  // Only the null unit stays committed; it reads zero.
  global_.resize(kAlign);
  std::memset(global_.data(), 0, kAlign);
}

void Memory::read_bytes(std::uint64_t addr, void* out, std::size_t n) const {
  if (is_const_address(addr)) {
    const std::uint64_t off = addr - kConstBase;
    HARMONIA_CHECK_MSG(off + n <= const_.size(), "constant read out of bounds at " << off);
    std::memcpy(out, const_.data() + off, n);
  } else {
    HARMONIA_CHECK_MSG(in_global(addr, n), "global read out of bounds at " << addr);
    std::memcpy(out, global_.data() + addr, n);
  }
}

void Memory::write_bytes(std::uint64_t addr, const void* in, std::size_t n) {
  if (is_const_address(addr)) {
    const std::uint64_t off = addr - kConstBase;
    HARMONIA_CHECK_MSG(off + n <= const_.size(), "constant write out of bounds at " << off);
    std::memcpy(const_.data() + off, in, n);
  } else {
    HARMONIA_CHECK_MSG(in_global(addr, n), "global write out of bounds at " << addr);
    std::memcpy(global_.data() + addr, in, n);
  }
}

}  // namespace harmonia::gpusim
