// Host math and operand check shared by the three tiled SDDMM bodies:
// octet (§6.3/6.4), WMMA warp (§6.2) and FPU subwarp (§6.1).
//
// Fold rule: each output (j, t) — row t of the CTA's vector row times
// its column j — gets one partial per 64-wide k-tile.  The partial
// starts at +0.0f and adds a[t][kk] * b[kk][j] in ascending kk; it is
// then added to acc[j][t].  `sddmm_reference` folds the same way, so
// the kernels match it bit for bit.  The fold below is vectorized
// across outputs and never across kk, so every partial is the same
// chain of adds a scalar loop would make.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "vsparse/common/macros.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/fp16/half.hpp"

namespace vsparse::kernels::sddmm_detail {

/// K stride of all three bodies (§6.4): the width of one fold.
inline constexpr int kTileK = 64;
/// Most output vectors one CTA covers.
inline constexpr int kMaxCols = 32;

/// The bodies load A rows and B columns with 16 B accesses from
/// 16 B-aligned k offsets, so each operand's first element and leading
/// dimension must be 16 B-aligned; otherwise the loads are misaligned,
/// and a real GPU faults on such a load.
template <class T>
void check_16b_aligned(const DenseDevice<T>& m, const char* operand) {
  constexpr int kElems = 16 / static_cast<int>(sizeof(T));
  VSPARSE_CHECK_MSG(m.ld % kElems == 0,
                    "sddmm operand " << operand << ": leading dimension "
                                     << m.ld << " is not a multiple of "
                                     << kElems << " elements (16 B loads)");
  VSPARSE_CHECK_MSG(m.buf.addr() % 16 == 0,
                    "sddmm operand " << operand << ": first element at "
                                     << m.buf.addr()
                                     << " is not 16 B-aligned");
}

/// Exact widening of n elements to fp32.
template <class T>
void widen(const T* src, float* dst, int n) {
  if constexpr (std::is_same_v<T, half_t>) {
    half_to_float_n(src, dst, static_cast<std::size_t>(n));
  } else {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
  }
}

/// Eight fp32 lanes: one per row t of a vector row (V <= 8).  A GCC
/// vector type, so that the fold's eight accumulators stay in
/// registers; it lowers to whatever vector width the target has.
using Floats8 = float __attribute__((vector_size(32)));

/// Adds the partials of the k-tile [k0, k0 + kcnt) to acc[j][t] for
/// j < jcnt, t < v: row row0 + t of the row-major A (leading dimension
/// lda) times column cols[j] of the column-major B (leading dimension
/// ldb).  kcnt <= kTileK, jcnt <= kMaxCols, v <= 8.
template <class T>
void fold_k_tile(const T* a, int lda, const T* b, int ldb, int row0, int k0,
                 int kcnt, const std::int32_t* cols, int jcnt, int v,
                 float (&acc)[kMaxCols][8]) {
  const auto at = [k0](const T* m, int ld, int line) {
    return m + static_cast<std::size_t>(line) * static_cast<std::size_t>(ld) +
           static_cast<std::size_t>(k0);
  };
  // The V x kcnt A tile, widened once and transposed: a_kt[kk] holds
  // a[0..V)[kk], and rows past V are zero.
  float a_kt[kTileK][8] = {};
  for (int t = 0; t < v; ++t) {
    float row[kTileK];
    widen(at(a, lda, row0 + t), row, kcnt);
    for (int kk = 0; kk < kcnt; ++kk) a_kt[kk][t] = row[kk];
  }
  // Eight columns at a time, each widened once; a missing column is
  // zero and its partials are dropped.
  for (int j0 = 0; j0 < jcnt; j0 += 8) {
    const int jn = std::min(8, jcnt - j0);
    float b_cols[8][kTileK];
    for (int jj = 0; jj < 8; ++jj) {
      if (jj < jn) {
        widen(at(b, ldb, cols[j0 + jj]), b_cols[jj], kcnt);
      } else {
        std::fill_n(b_cols[jj], kcnt, 0.0f);
      }
    }
    // p[jj][t] starts at +0.0f and takes one product per kk, in
    // ascending kk: the eight columns are independent chains.
    Floats8 p[8] = {};
    for (int kk = 0; kk < kcnt; ++kk) {
      Floats8 x;
      std::memcpy(&x, a_kt[kk], sizeof x);
#pragma GCC unroll 8
      for (int jj = 0; jj < 8; ++jj) p[jj] += b_cols[jj][kk] * x;
    }
    for (int jj = 0; jj < jn; ++jj) {
      for (int t = 0; t < v; ++t) acc[j0 + jj][t] += p[jj][t];
    }
  }
}

}  // namespace vsparse::kernels::sddmm_detail
