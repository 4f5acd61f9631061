#include "vsparse/formats/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vsparse {

DenseMatrix<half_t> spmm_reference(const Cvs& a,
                                   const DenseMatrix<half_t>& b) {
  VSPARSE_CHECK(a.cols == b.rows());
  DenseMatrix<half_t> c(a.rows, b.cols());
  std::vector<float> acc(static_cast<std::size_t>(b.cols()));
  for (int vr = 0; vr < a.vec_rows(); ++vr) {
    for (int t = 0; t < a.v; ++t) {
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (std::int32_t i = a.row_ptr[static_cast<std::size_t>(vr)];
           i < a.row_ptr[static_cast<std::size_t>(vr) + 1]; ++i) {
        const std::int32_t k = a.col_idx[static_cast<std::size_t>(i)];
        const float av = static_cast<float>(
            a.values[static_cast<std::size_t>(i) *
                         static_cast<std::size_t>(a.v) +
                     static_cast<std::size_t>(t)]);
        for (int j = 0; j < b.cols(); ++j) {
          acc[static_cast<std::size_t>(j)] +=
              av * static_cast<float>(b.at(k, j));
        }
      }
      for (int j = 0; j < b.cols(); ++j) {
        c.at(vr * a.v + t, j) = half_t(acc[static_cast<std::size_t>(j)]);
      }
    }
  }
  return c;
}

Cvs sddmm_reference(const DenseMatrix<half_t>& a, const DenseMatrix<half_t>& b,
                    const Cvs& mask) {
  VSPARSE_CHECK(a.cols() == b.rows());
  VSPARSE_CHECK(mask.rows == a.rows());
  VSPARSE_CHECK(mask.cols == b.cols());
  Cvs out = mask;  // same pattern
  for (int vr = 0; vr < mask.vec_rows(); ++vr) {
    for (std::int32_t i = mask.row_ptr[static_cast<std::size_t>(vr)];
         i < mask.row_ptr[static_cast<std::size_t>(vr) + 1]; ++i) {
      const std::int32_t col = mask.col_idx[static_cast<std::size_t>(i)];
      for (int t = 0; t < mask.v; ++t) {
        const int row = vr * mask.v + t;
        float sum = 0.0f;
        for (int k0 = 0; k0 < a.cols(); k0 += kSddmmTileK) {
          float partial = 0.0f;
          for (int k = k0; k < std::min(k0 + kSddmmTileK, a.cols()); ++k) {
            partial += static_cast<float>(a.at(row, k)) *
                       static_cast<float>(b.at(k, col));
          }
          sum += partial;
        }
        const float m = static_cast<float>(
            mask.values[static_cast<std::size_t>(i) *
                            static_cast<std::size_t>(mask.v) +
                        static_cast<std::size_t>(t)]);
        out.values[static_cast<std::size_t>(i) *
                       static_cast<std::size_t>(mask.v) +
                   static_cast<std::size_t>(t)] = half_t(sum * m);
      }
    }
  }
  return out;
}

Cvs sparse_softmax_reference(const Cvs& logits, float scale) {
  Cvs out = logits;
  for (int vr = 0; vr < logits.vec_rows(); ++vr) {
    const std::int32_t begin = logits.row_ptr[static_cast<std::size_t>(vr)];
    const std::int32_t end = logits.row_ptr[static_cast<std::size_t>(vr) + 1];
    for (int t = 0; t < logits.v; ++t) {
      // Numerically stable softmax over this matrix row's nonzeros.
      float maxv = -std::numeric_limits<float>::infinity();
      for (std::int32_t i = begin; i < end; ++i) {
        maxv = std::max(
            maxv, static_cast<float>(
                      logits.values[static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(logits.v) +
                                    static_cast<std::size_t>(t)]) *
                      scale);
      }
      float denom = 0.0f;
      for (std::int32_t i = begin; i < end; ++i) {
        denom += std::exp(
            static_cast<float>(
                logits.values[static_cast<std::size_t>(i) *
                                  static_cast<std::size_t>(logits.v) +
                              static_cast<std::size_t>(t)]) *
                scale -
            maxv);
      }
      for (std::int32_t i = begin; i < end; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i) *
                                    static_cast<std::size_t>(logits.v) +
                                static_cast<std::size_t>(t);
        const float e = std::exp(
            static_cast<float>(logits.values[idx]) * scale - maxv);
        out.values[idx] = half_t(denom > 0 ? e / denom : 0.0f);
      }
    }
  }
  return out;
}

}  // namespace vsparse
