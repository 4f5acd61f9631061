// Synthetic sparse-matrix generators implementing the paper's benchmark
// construction (§7.1.1, Fig. 16) and the attention-mask pattern of
// §7.4.
//
// DLMC substitution: the paper takes csrRowPtr/csrColInd from ResNet-50
// magnitude-pruned matrices and randomizes the values.  We cannot ship
// DLMC, so the pattern itself is synthesized: per-row nonzero counts
// get a configurable jitter (magnitude pruning yields imbalanced rows)
// and column positions are uniform.  Values are random nonzero vectors,
// exactly as §7.1.1 does.
#pragma once

#include <cstdint>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/formats/cvs.hpp"

namespace vsparse {

/// Random CSR-structure pattern: `rows` x `cols`, target fraction of
/// zeros `sparsity`, per-row nonzero count jittered by up to
/// +-`row_jitter` (relative) to mimic magnitude-pruning imbalance.
/// Column indices are sorted unique uniform draws.
void random_pattern(int rows, int cols, double sparsity, double row_jitter,
                    Rng& rng, std::vector<std::int32_t>& row_ptr,
                    std::vector<std::int32_t>& col_idx);

/// §7.1.1 benchmark matrix: M x K column-vector sparse matrix with
/// grain V x 1, random nonzero values in (0.5, 1.5) (never zero, so the
/// encoded sparsity is exact).
Cvs make_cvs(int m, int k, int v, double sparsity, Rng& rng,
             double row_jitter = 0.25);

/// Binary mask in CVS encoding (all stored values 1.0) for SDDMM.
Cvs make_cvs_mask(int m, int n, int v, double sparsity, Rng& rng,
                  double row_jitter = 0.0);

/// Adversarial corner operand for the shape-class verifier
/// (gpusim/verify/verifier.hpp): a rows x cols CVS whose vector-row
/// `vec_row` holds `count` vectors and every other vector-row is empty,
/// so that row's extent ends at the last element of col_idx and values.
/// The row holds the last `count` columns: count == cols stores columns
/// 0..cols-1, count == cols-1 stores 1..cols-1, and count == 0 is the
/// empty matrix.  Values are 1.0.
Cvs make_corner_cvs(int rows, int cols, int v, int vec_row, int count);

/// §7.1.1 Blocked-ELL construction: block size b, blocks per block-row
/// = ceil((K/b) * (1 - sparsity)), uniform random distinct block
/// columns, random nonzero values.  Same problem size and sparsity as
/// the matching CVS benchmark.
BlockedEll make_blocked_ell(int m, int k, int block, double sparsity,
                            Rng& rng);

/// §7.4 fixed attention mask: seq x seq, a dense band of width `band`
/// along the diagonal plus uniform random off-diagonal vectors, at
/// V x 1 vector granularity, hitting the target overall sparsity.
Cvs make_attention_mask(int seq, int v, int band, double sparsity, Rng& rng);

}  // namespace vsparse
