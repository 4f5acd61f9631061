#include "vsparse/transformer/attention.hpp"

#include <cmath>

#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/softmax/sparse_softmax.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace vsparse::transformer {

AttentionBreakdown sparse_attention_head(gpusim::Device& dev,
                                         const DenseDevice<half_t>& q,
                                         const DenseDevice<half_t>& k,
                                         const DenseDevice<half_t>& v,
                                         const CvsDevice& mask,
                                         gpusim::Buffer<half_t>& scratch_values,
                                         DenseDevice<half_t>& out) {
  const int seq = q.rows;
  const int d = q.cols;
  VSPARSE_CHECK(k.rows == seq && k.cols == d);
  VSPARSE_CHECK(v.rows == seq && v.cols == d);
  VSPARSE_CHECK(mask.rows == seq && mask.cols == seq);
  VSPARSE_CHECK(out.rows == seq && out.cols == d);

  AttentionBreakdown r;

  // Q Kᵀ ⊙ C: the row-major seq x d K matrix is bit-identical to the
  // column-major d x seq Kᵀ the SDDMM RHS wants.
  DenseDevice<half_t> kt{k.buf, d, seq, k.ld, Layout::kColMajor};
  r.qk = kernels::sddmm_octet(dev, q, kt, mask, scratch_values,
                              {kernels::InvertedPatternMode::kExtraRegisters});

  // Softmax over the masked scores, scaled by 1/sqrt(k), in place.
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  r.softmax = kernels::sparse_softmax(dev, mask, scratch_values,
                                      scratch_values, scale);

  // A V: the probabilities (CVS values) drive the octet SpMM.
  CvsDevice probs = mask;
  probs.values = scratch_values;
  r.av = kernels::spmm_octet(dev, probs, v, out);
  return r;
}

AttentionBreakdown dense_attention_head(gpusim::Device& dev,
                                        const DenseDevice<half_t>& q,
                                        const DenseDevice<half_t>& k,
                                        const DenseDevice<half_t>& v,
                                        DenseDevice<half_t>& scores,
                                        DenseDevice<half_t>& out) {
  const int seq = q.rows;
  const int d = q.cols;
  VSPARSE_CHECK(scores.rows == seq && scores.cols == seq);
  VSPARSE_CHECK(out.rows == seq && out.cols == d);

  AttentionBreakdown r;
  DenseDevice<half_t> kt{k.buf, d, seq, k.ld, Layout::kColMajor};
  r.qk = kernels::hgemm_tcu(dev, q, kt, scores);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  r.softmax = kernels::dense_softmax(dev, scores, scale);
  r.av = kernels::hgemm_tcu(dev, scores, v, out);
  return r;
}

}  // namespace vsparse::transformer
