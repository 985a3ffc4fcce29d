#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace insta::util {

/// Current resident set size of this process in bytes (0 if unavailable).
[[nodiscard]] std::size_t current_rss_bytes();

/// Peak resident set size of this process in bytes (0 if unavailable).
[[nodiscard]] std::size_t peak_rss_bytes();

/// Converts a byte count to gibibytes.
[[nodiscard]] double to_gib(std::size_t bytes);

/// std::allocator whose value-less construct() default-initializes, so
/// resize() on a std::vector<T, DefaultInitAllocator<T>> of a trivial T
/// allocates without writing. The first write to a large buffer then
/// happens wherever its owner fills it (e.g. in parallel) instead of in a
/// serial zero-fill inside resize(). The owner must write every element
/// before reading it.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

}  // namespace insta::util
