// Host reference implementations of every operation the kernels
// compute.  Used by the test suite as ground truth and by examples for
// verification.  All references accumulate in fp32 (as the tensor core
// does) and round the final result to the output type.
#pragma once

#include <vector>

#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/formats/csr.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"

namespace vsparse {

/// C[MxN] = A[MxK] * B[KxN], fp32 accumulation, output rounded to T.
/// Layouts of A and B are honored.
template <class T>
DenseMatrix<T> gemm_reference(const DenseMatrix<T>& a,
                              const DenseMatrix<T>& b) {
  VSPARSE_CHECK(a.cols() == b.rows());
  DenseMatrix<T> c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (int k = 0; k < a.cols(); ++k) {
        sum += static_cast<float>(a.at(i, k)) * static_cast<float>(b.at(k, j));
      }
      c.at(i, j) = T(sum);
    }
  }
  return c;
}

/// SpMM: C[MxN] = A_sparse[MxK] * B[KxN] (CVS A, row-major B).
DenseMatrix<half_t> spmm_reference(const Cvs& a, const DenseMatrix<half_t>& b);

/// SpMM with a fine-grained CSR LHS (the Fig. 4 baseline semantics).
template <class T>
DenseMatrix<T> spmm_csr_reference(const Csr<T>& a, const DenseMatrix<T>& b) {
  VSPARSE_CHECK(a.cols == b.rows());
  DenseMatrix<T> c(a.rows, b.cols());
  for (int r = 0; r < a.rows; ++r) {
    for (int j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (std::int32_t i = a.row_ptr[static_cast<std::size_t>(r)];
           i < a.row_ptr[static_cast<std::size_t>(r) + 1]; ++i) {
        sum += static_cast<float>(a.values[static_cast<std::size_t>(i)]) *
               static_cast<float>(
                   b.at(a.col_idx[static_cast<std::size_t>(i)], j));
      }
      c.at(r, j) = T(sum);
    }
  }
  return c;
}

/// Width of the k-tiles the SDDMM reference folds over: the K stride
/// of the octet, WMMA and FPU SDDMM kernels (§6.4).
inline constexpr int kSddmmTileK = 64;

/// SDDMM: C = (A[MxK] * B[KxN]) masked to the pattern of `mask`
/// (a CVS-encoded binary mask).  Returns the nonzero values in the
/// mask's storage order (a Cvs sharing the mask's pattern).
/// B is expected column-major (§4.1).  Each output folds as the tiled
/// kernels do: one fp32 partial per kSddmmTileK-wide k-tile, starting
/// at +0 and adding its products in ascending k, then added to the
/// output's running sum.  The fold order shows in the result bits
/// whenever K > kSddmmTileK and the sums round.
Cvs sddmm_reference(const DenseMatrix<half_t>& a, const DenseMatrix<half_t>& b,
                    const Cvs& mask);

/// Row-wise softmax over the nonzeros of a CVS matrix: each *matrix*
/// row (not vector-row) is normalized over its stored entries, exactly
/// what the §7.4 sparse-attention softmax computes.  Returns a Cvs with
/// the same pattern.
Cvs sparse_softmax_reference(const Cvs& logits, float scale = 1.0f);

}  // namespace vsparse
