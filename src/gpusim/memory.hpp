// Simulated device memory: a global segment and a constant segment.
//
// Addresses are plain 64-bit integers in a single simulated address space;
// the constant segment lives at kConstBase so the warp-load path can route
// accesses to the constant cache by address alone, the way real hardware
// routes `__constant__` accesses through the constant cache.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/expect.hpp"

namespace harmonia::gpusim {

/// Constant-memory addresses are offset by this base. Global allocations
/// can never reach it (checked at malloc time).
inline constexpr std::uint64_t kConstBase = 1ULL << 48;

inline bool is_const_address(std::uint64_t addr) { return addr >= kConstBase; }

/// Typed device pointer: an address plus element arithmetic. Host code
/// cannot dereference it directly — go through Memory, as with real CUDA.
template <typename T>
struct DevPtr {
  std::uint64_t addr = 0;

  bool is_null() const { return addr == 0; }
  std::uint64_t element_addr(std::uint64_t i) const { return addr + i * sizeof(T); }
  DevPtr<T> offset(std::uint64_t i) const { return DevPtr<T>{element_addr(i)}; }
};

/// Zeroing contract: every byte below global_used() / const_used() was
/// either written by an upload or copy, or zeroed by the allocation that
/// covered it (malloc bodies and every alignment gap). Device memory never
/// holds indeterminate bytes, and each byte an upload covers is written
/// once.
///
/// The global segment is one fixed reservation of its whole capacity,
/// made at construction: the host commits a page when it is first
/// touched, and the segment is never reallocated or copied.
class Memory {
 public:
  Memory(std::uint64_t global_bytes, std::uint64_t const_bytes);
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Bump-allocates `count` elements in global memory, 256 B aligned.
  /// The allocation reads zero.
  template <typename T>
  DevPtr<T> malloc(std::uint64_t count) {
    return DevPtr<T>{alloc_bytes(count * sizeof(T), /*constant=*/false)};
  }

  /// Allocates in the (small) constant segment; throws if it does not fit.
  /// The allocation reads zero.
  template <typename T>
  DevPtr<T> const_malloc(std::uint64_t count) {
    return DevPtr<T>{alloc_bytes(count * sizeof(T), /*constant=*/true)};
  }

  /// Allocates `src.size()` elements in global memory (as malloc) and
  /// copies `src` into them, without zeroing the bytes it overwrites.
  template <typename T>
  DevPtr<T> upload(std::span<const T> src) {
    return DevPtr<T>{upload_bytes(src.data(), src.size_bytes())};
  }

  /// Releases everything allocated so far (both segments). Pages of the
  /// global segment stay committed for the next allocations.
  void free_all();

  template <typename T>
  void copy_to_device(DevPtr<T> dst, std::span<const T> src) {
    write_bytes(dst.addr, src.data(), src.size_bytes());
  }

  template <typename T>
  void copy_to_host(std::span<T> dst, DevPtr<T> src) {
    read_bytes(src.addr, dst.data(), dst.size_bytes());
  }

  /// Simulator-side typed load (used by warp gather after accounting).
  /// An in-range global load is an inline fixed-size copy; anything else
  /// (constant space, out of range) takes the checked read_bytes path.
  template <typename T>
  T read(std::uint64_t addr) const {
    T out;
    if (in_global(addr, sizeof(T))) {
      std::memcpy(&out, global_ + addr, sizeof(T));
    } else {
      read_bytes(addr, &out, sizeof(T));
    }
    return out;
  }

  template <typename T>
  void write(std::uint64_t addr, const T& value) {
    if (in_global(addr, sizeof(T))) {
      std::memcpy(global_ + addr, &value, sizeof(T));
    } else {
      write_bytes(addr, &value, sizeof(T));
    }
  }

  std::uint64_t global_used() const { return global_used_; }
  std::uint64_t const_used() const { return const_used_; }
  std::uint64_t global_capacity() const { return global_capacity_; }
  std::uint64_t const_capacity() const { return const_.size(); }

  void read_bytes(std::uint64_t addr, void* out, std::size_t n) const;
  void write_bytes(std::uint64_t addr, const void* in, std::size_t n);

 private:
  /// Reserves `bytes` (> 0) in a segment and zeroes the alignment gap in
  /// front of them; the reserved bytes themselves are left for the caller.
  std::uint64_t reserve_bytes(std::uint64_t bytes, bool constant);
  std::uint64_t alloc_bytes(std::uint64_t bytes, bool constant);
  std::uint64_t upload_bytes(const void* src, std::uint64_t bytes);

  /// [addr, addr + n) lies below global_used(). Constant addresses never
  /// do: they sit above every global allocation.
  bool in_global(std::uint64_t addr, std::size_t n) const {
    return addr <= global_used_ && n <= global_used_ - addr;
  }

  /// The global segment: an anonymous private mapping of
  /// global_capacity_ bytes, reserved without committing memory.
  std::uint8_t* global_ = nullptr;
  std::vector<std::uint8_t> const_;
  std::uint64_t global_capacity_ = 0;
  std::uint64_t global_used_ = 0;
  std::uint64_t const_used_ = 0;
};

}  // namespace harmonia::gpusim
