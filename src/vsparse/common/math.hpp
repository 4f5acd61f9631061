// Small integer-math helpers used throughout tiling and cache-geometry
// code.  All constexpr so tile shapes can be computed at compile time
// (paper guideline III: compute offsets and constants at compile time).
#pragma once

#include <cstdint>
#include <type_traits>

#include "vsparse/common/macros.hpp"

namespace vsparse {

/// ceil(a / b) for non-negative integers, b > 0.
template <class T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return static_cast<T>((a + b - 1) / b);
}

/// Smallest multiple of `b` that is >= `a`.
template <class T>
constexpr T round_up(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return ceil_div(a, b) * b;
}

/// Largest multiple of `b` that is <= `a`.
template <class T>
constexpr T round_down(T a, T b) {
  static_assert(std::is_integral_v<T>);
  return (a / b) * b;
}

/// True iff `x` is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace vsparse
