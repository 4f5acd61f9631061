// Algorithm-based fault tolerance (ABFT) options and outcome report.
//
// The checksum-augmented kernel variant (spmm_octet_abft) maintains a
// checksum row per CTA output tile: the fp64 weight w_i = sum_t
// values[i*v + t] of each stored nonzero vector of the tile's vector
// row is formed on the host (trusted ALU), and after the launch each
// tile's actual column sums sum_t C[r+t][j] are compared against the
// expectation sum_i w_i * B[col_i][j].  A mismatched column localizes
// the corruption to one CTA tile, which is recomputed in place by
// re-running the same kernel on sub-views of the operands — the
// per-element accumulation order follows the row's nonzeros and is
// independent of the grid partition, so a clean recompute is
// bit-identical to a clean full run.  Detection therefore costs no
// extra device work; recovery costs one single-tile launch per
// corrupted tile per round, with at most `max_retries` rounds (a
// transient upset can strike the recompute too).
#pragma once

namespace vsparse::kernels {

/// Knobs for the checksum verify/recover loop.
struct AbftOptions {
  /// Per-column tolerance: |actual - expected| must not exceed
  /// abs_tol * tile_rows + rel_tol * sum_i |w_i|*|B[col_i][j]| — the
  /// second term absorbs fp16 round-off of legitimately large tiles.
  double rel_tol = 1e-3;
  double abs_tol = 1e-2;
  /// Verification rounds after the initial one; each round recomputes
  /// every still-corrupted tile once.
  int max_retries = 3;
};

/// What the ABFT layer observed and did for one kernel run.
struct AbftReport {
  bool enabled = false;    ///< an ABFT variant ran (else all fields zero)
  bool clean = false;      ///< final verification passed on every tile
  int corrupted_tiles = 0;    ///< tiles failing the first verification
  int recompute_launches = 0; ///< single-tile recovery launches issued
  int retries_used = 0;       ///< extra verify/recompute rounds needed
};

}  // namespace vsparse::kernels
