// std::allocator without the zero fill.
//
// `std::vector<T>::resize(n)` value-initializes every new element, which
// for a byte slab or a merge buffer is a memset of memory the caller is
// about to overwrite. UninitAllocator drops that step, so growing a vector
// only reserves its bytes.
#pragma once

#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nf {

namespace detail {

/// std::allocator whose argument-less construct() leaves the element as
/// allocated instead of value-initializing it, so `resize(n)` costs no
/// zero fill. Only for element types whose lifetime the allocation itself
/// starts (trivially copy-constructible and destructible); every slot must
/// be assigned before it is read.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      static_assert(std::is_trivially_copy_constructible_v<U> &&
                    std::is_trivially_destructible_v<U>);
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace detail

}  // namespace nf
