// Sparse multi-head self-attention (§7.4):
//
//   A = Softmax((Q Kᵀ ⊙ C) / sqrt(k)),   Attention(Q,K,V) = A V
//
// with C a fixed banded+random attention mask in column-vector sparse
// encoding.  QKᵀ⊙C maps onto the SDDMM kernel (Kᵀ is free: the
// row-major K matrix *is* the column-major k x seq RHS), the sparse
// softmax runs on the CVS values in place, and AV maps onto the SpMM
// kernel.  The dense baseline path computes the same layer with
// hgemm + dense softmax.
#pragma once

#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/kernels/api.hpp"

namespace vsparse::transformer {

/// Per-stage results of one attention-head forward (the Fig. 20
/// breakdown: QKᵀ∘C, Softmax, AV).
struct AttentionBreakdown {
  kernels::KernelRun qk;
  kernels::KernelRun softmax;
  kernels::KernelRun av;

  double total_cycles(const gpusim::DeviceConfig& hw,
                      const gpusim::CostParams& p = {}) const {
    return qk.cycles(hw, p) + softmax.cycles(hw, p) + av.cycles(hw, p);
  }
};

/// One sparse attention head: q, k, v are seq x head_dim row-major
/// device matrices; `mask` is the seq x seq CVS attention mask;
/// `out` receives the seq x head_dim context.  `scratch_values` must
/// hold mask.nnz() halves (the attention-probability buffer).
AttentionBreakdown sparse_attention_head(gpusim::Device& dev,
                                         const DenseDevice<half_t>& q,
                                         const DenseDevice<half_t>& k,
                                         const DenseDevice<half_t>& v,
                                         const CvsDevice& mask,
                                         gpusim::Buffer<half_t>& scratch_values,
                                         DenseDevice<half_t>& out);

/// The dense baseline head: full seq x seq attention matrix via hgemm,
/// dense softmax, dense AV.  `scores` must be a seq x seq scratch.
AttentionBreakdown dense_attention_head(gpusim::Device& dev,
                                        const DenseDevice<half_t>& q,
                                        const DenseDevice<half_t>& k,
                                        const DenseDevice<half_t>& v,
                                        DenseDevice<half_t>& scores,
                                        DenseDevice<half_t>& out);

}  // namespace vsparse::transformer
