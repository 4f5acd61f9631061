// The §7.4 sparse-transformer inference model (Table 4 / Fig. 20).
//
// A 4-layer, 4-head encoder (head dim 64 => d_model 256, FFN 1024) with
// a fixed banded+random attention mask at 8x1 vector granularity and
// 90% sparsity — the configuration the paper trains on the LRA
// byte-level text-classification task.  We run forward-only inference
// with random weights (training is out of scope here; numerical
// fidelity is measured separately, see fidelity.hpp) in one of three
// modes matching Table 4's columns:
//
//   kDenseFloat  — cublasSgemm-style fp32 GEMMs + fp32 softmax,
//   kDenseHalf   — cublasHgemm-style TCU GEMMs + fp16 softmax,
//   kSparseHalf  — SDDMM(octet) + sparse softmax + SpMM(octet) for the
//                  attention core, TCU GEMMs elsewhere.
//
// Heads and batch elements execute identical kernels on identically
// shaped operands; the simulator runs one instance and scales the
// cycle estimate by heads x batch (per-head kernel launches, as the
// paper's implementation does).  Peak memory is the device allocator's
// high-water mark with all heads' and batch elements' score buffers
// live at the attention stage — which is exactly what dominates
// Table 4's memory column.
#pragma once

#include <cstdint>

#include "vsparse/gpusim/costmodel.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/kernels/api.hpp"

namespace vsparse::transformer {

enum class Mode : std::uint8_t { kDenseFloat, kDenseHalf, kSparseHalf };

struct ModelConfig {
  int seq = 1024;      ///< paper scale: 4096 (LRA byte task uses 4000)
  int layers = 4;
  int heads = 4;
  int head_dim = 64;
  int ffn_dim = 1024;
  int v = 8;           ///< mask grain (8x1, §7.4)
  int band = 256;      ///< diagonal band width
  double sparsity = 0.90;
  int batch = 8;
  Mode mode = Mode::kSparseHalf;

  int d_model() const { return heads * head_dim; }
};

/// Cycle/memory results of one batched forward pass.
struct ForwardResult {
  double qk_cycles = 0;       ///< QKᵀ(⊙C) across all layers/heads/batch
  double softmax_cycles = 0;
  double av_cycles = 0;
  double other_cycles = 0;    ///< projections + FFN

  std::size_t peak_memory_bytes = 0;

  double total_cycles() const {
    return qk_cycles + softmax_cycles + av_cycles + other_cycles;
  }
  /// Sequences per second at the given core clock.
  double throughput(double clock_hz, int batch) const {
    return batch / (total_cycles() / clock_hz);
  }
};

/// Run one batched forward pass on the device (which should be freshly
/// reset; its peak-memory counter is the Table 4 memory column).
ForwardResult run_transformer_forward(gpusim::Device& dev,
                                      const ModelConfig& cfg,
                                      std::uint64_t seed,
                                      const gpusim::CostParams& params = {});

}  // namespace vsparse::transformer
