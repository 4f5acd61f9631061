// Deterministic pseudo-random number generation for benchmark and test
// reproducibility.  We use xoshiro256** (public-domain reference
// algorithm by Blackman & Vigna) rather than std::mt19937 because it is
// faster, has a tiny state, and — unlike the standard distributions —
// the helper methods below are bit-identical across standard libraries,
// which keeps the synthetic DLMC suite stable across toolchains.
#pragma once

#include <cstdint>
#include <limits>

#include "vsparse/common/macros.hpp"

namespace vsparse {

/// splitmix64: one golden-ratio step plus its finalizer.  Decorrelates
/// structured inputs (seed ^ index, seed ^ tag) into uniform u64s, so
/// every seed-derived decision in the simulator and the serving layer
/// is reproducible from the seed alone.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// xoshiro256** generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words from a single seed via splitmix64, as
  /// recommended by the xoshiro authors.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    for (auto& s : state_) {
      s = mix64(seed);
      seed += 0x9e3779b97f4a7c15ull;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t uniform_u64(std::uint64_t n) {
    VSPARSE_DCHECK(n > 0);
    unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>((*this)()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform int in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    VSPARSE_DCHECK(hi >= lo);
    return lo + static_cast<int>(uniform_u64(
                    static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform float in [0, 1).
  float uniform_float() {
    return static_cast<float>((*this)() >> 40) * 0x1.0p-24f;
  }

  /// Uniform float in [lo, hi).
  float uniform_float(float lo, float hi) {
    return lo + (hi - lo) * uniform_float();
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(float p) { return uniform_float() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace vsparse
