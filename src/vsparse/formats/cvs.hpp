// Column-Vector Sparse encoding — the paper's first contribution (§4).
//
// Equivalent to CSR where each nonzero scalar is replaced by a nonzero
// Vx1 *column vector* (V in {1,2,4,8}): the elements of each vector are
// contiguous in memory (half2/half4/half8 loads), consecutive vectors
// of the same vector-row are contiguous too, and the index arrays are
// exactly CSR's csrRowPtr/csrColInd over the (M/V) x K "vector rows"
// (Fig. 8).  V=1 degenerates to ordinary CSR, which is how the
// fine-grained baselines are expressed.
//
// The same structure doubles as the binary SDDMM *output mask* — the
// mask is the pattern without values (§6.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/fp16/half.hpp"
#include "vsparse/formats/dense.hpp"

namespace vsparse {

/// Column-vector sparse matrix of halves.
struct Cvs {
  int rows = 0;  ///< M, must be a multiple of v
  int cols = 0;  ///< K (SpMM LHS) or N (SDDMM output)
  int v = 1;     ///< column-vector length (grain size V x 1)
  std::vector<std::int32_t> row_ptr;  ///< size rows/v + 1, in vector units
  std::vector<std::int32_t> col_idx;  ///< column of each nonzero vector
  std::vector<half_t> values;         ///< nnz_vectors * v halves

  int vec_rows() const { return rows / v; }
  std::int64_t nnz_vectors() const {
    return static_cast<std::int64_t>(col_idx.size());
  }
  std::int64_t nnz() const { return nnz_vectors() * v; }

  /// Fraction of zero entries (vector granularity: a stored vector is
  /// all-nonzero by construction).
  double sparsity() const {
    const double total = static_cast<double>(rows) * cols;
    return total == 0 ? 0.0 : 1.0 - static_cast<double>(nnz()) / total;
  }

  /// Structural invariants (also value-array sizing).
  void validate() const;

  /// Encode a dense matrix: every Vx1 column vector containing at least
  /// one nonzero becomes a stored vector (zeros within it are kept, as
  /// the encoding is vector-granular).
  static Cvs from_dense(const DenseMatrix<half_t>& m, int v);

  DenseMatrix<half_t> to_dense() const;
};

/// Device mirror of a Cvs matrix.  Templated on the value type so the
/// single-precision fine-grained baselines (Fig. 4) can reuse the same
/// kernels with float values at V = 1.
template <class T>
struct CvsDeviceT {
  gpusim::Buffer<std::int32_t> row_ptr;
  gpusim::Buffer<std::int32_t> col_idx;
  gpusim::Buffer<T> values;
  int rows = 0;
  int cols = 0;
  int v = 1;

  int vec_rows() const { return rows / v; }
};

using CvsDevice = CvsDeviceT<half_t>;

/// Vector-load tail slack, in elements, the device CVS `col_idx` array
/// declares (Device::alloc).  Sputnik requires its inputs padded the
/// same way: kernels that fetch indices in pairs (LDG.64) can issue the
/// last pair of an odd-length row chunk.  No kernel reads past the last
/// value, so `values` declares none.
inline constexpr std::size_t kCvsColIdxTailSlack = 1;

CvsDevice to_device(gpusim::Device& dev, const Cvs& m);

/// Upload a CVS pattern with values widened to float (the
/// single-precision baselines operate on the same pattern).
CvsDeviceT<float> to_device_f32(gpusim::Device& dev, const Cvs& m);

}  // namespace vsparse
