// A std::vector whose growth leaves new elements default-initialized:
// for trivial types, resize() only moves the end pointer instead of
// zero-filling. Used for large regions that the caller writes whole right
// after sizing them (a rebuilt or bulk-loaded tree region), so
// each byte is written once.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace harmonia {

template <typename T, typename Base = std::allocator<T>>
class DefaultInitAllocator : public Base {
  using Traits = std::allocator_traits<Base>;

 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U, typename Traits::template rebind_alloc<U>>;
  };

  using Base::Base;

  /// Value-less construction default-initializes (no zero fill).
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    Traits::construct(static_cast<Base&>(*this), p, std::forward<Args>(args)...);
  }
};

/// resize() and growth leave new elements unwritten; assign/insert with a
/// value and copies behave as for std::vector.
template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace harmonia
