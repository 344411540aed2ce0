#include "gpusim/memory.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

namespace harmonia::gpusim {

namespace {
constexpr std::uint64_t kAlign = 256;

std::uint64_t round_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) / align * align;
}
}  // namespace

Memory::Memory(std::uint64_t global_bytes, std::uint64_t const_bytes)
    : const_(const_bytes), global_capacity_(global_bytes) {
  // Reserve the whole segment up front; pages are committed on first
  // touch, and fresh anonymous pages read zero.
  void* base = ::mmap(nullptr, global_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  HARMONIA_CHECK_MSG(base != MAP_FAILED, "cannot reserve a " << global_bytes
                                             << " B global segment: " << std::strerror(errno));
  global_ = static_cast<std::uint8_t*>(base);
  // Address 0 acts as the null device pointer: burn the first alignment unit.
  global_used_ = kAlign;
}

Memory::~Memory() { ::munmap(global_, global_capacity_); }

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
  std::memset(global_ + global_used_, 0, base - global_used_);
  global_used_ = base + bytes;
  return base;
}

std::uint64_t Memory::alloc_bytes(std::uint64_t bytes, bool constant) {
  const std::uint64_t addr = reserve_bytes(bytes, constant);
  std::memset(constant ? const_.data() + (addr - kConstBase) : global_ + addr, 0, bytes);
  return addr;
}

std::uint64_t Memory::upload_bytes(const void* src, std::uint64_t bytes) {
  const std::uint64_t addr = reserve_bytes(bytes, /*constant=*/false);
  std::memcpy(global_ + addr, src, bytes);
  return addr;
}

void Memory::free_all() {
  global_used_ = kAlign;
  const_used_ = 0;
  // Pages stay committed: the next image refills them instead of faulting
  // in fresh ones. Only the null unit stays allocated; it reads zero.
  std::memset(global_, 0, kAlign);
}

void Memory::read_bytes(std::uint64_t addr, void* out, std::size_t n) const {
  if (is_const_address(addr)) {
    const std::uint64_t off = addr - kConstBase;
    HARMONIA_CHECK_MSG(off + n <= const_.size(), "constant read out of bounds at " << off);
    std::memcpy(out, const_.data() + off, n);
  } else {
    HARMONIA_CHECK_MSG(in_global(addr, n), "global read out of bounds at " << addr);
    std::memcpy(out, global_ + addr, n);
  }
}

void Memory::write_bytes(std::uint64_t addr, const void* in, std::size_t n) {
  if (is_const_address(addr)) {
    const std::uint64_t off = addr - kConstBase;
    HARMONIA_CHECK_MSG(off + n <= const_.size(), "constant write out of bounds at " << off);
    std::memcpy(const_.data() + off, in, n);
  } else {
    HARMONIA_CHECK_MSG(in_global(addr, n), "global write out of bounds at " << addr);
    std::memcpy(global_ + addr, in, n);
  }
}

}  // namespace harmonia::gpusim
