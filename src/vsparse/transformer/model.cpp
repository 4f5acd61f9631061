#include "vsparse/transformer/model.hpp"

#include <cmath>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/softmax/sparse_softmax.hpp"
#include "vsparse/transformer/attention.hpp"

namespace vsparse::transformer {

namespace {

/// Accumulate `run`'s model cycles into a result bucket, scaled by
/// `mult` identical executions (heads x batch).
void add_run(const kernels::KernelRun& run, const gpusim::DeviceConfig& hw,
             const gpusim::CostParams& params, double mult, double& bucket) {
  bucket += run.cycles(hw, params) * mult;
}

template <class T>
void fill_device(gpusim::Buffer<T>& buf, Rng& rng, float lo, float hi) {
  for (T& x : buf.host()) x = T(rng.uniform_float(lo, hi));
}

}  // namespace

ForwardResult run_transformer_forward(gpusim::Device& dev,
                                      const ModelConfig& cfg,
                                      std::uint64_t seed,
                                      const gpusim::CostParams& params) {
  VSPARSE_CHECK(cfg.seq % 64 == 0);
  VSPARSE_CHECK(cfg.head_dim % 64 == 0);
  VSPARSE_CHECK(cfg.d_model() % 64 == 0 && cfg.ffn_dim % 64 == 0);
  const gpusim::DeviceConfig& hw = dev.config();
  Rng rng(seed);
  ForwardResult res;
  const int d = cfg.d_model();
  const int seq = cfg.seq;
  const double per_batch = cfg.batch;
  const double per_head_batch = static_cast<double>(cfg.heads) * cfg.batch;

  const bool fp32 = cfg.mode == Mode::kDenseFloat;

  // ---- weights (per layer: Wq, Wk, Wv, Wo, W1, W2) --------------------
  const std::size_t weight_elems =
      static_cast<std::size_t>(cfg.layers) *
      (4u * d * d + 2u * static_cast<std::size_t>(d) * cfg.ffn_dim);

  // ---- helper running the three-mode GEMM C = A * W -------------------
  // (executes once; caller scales by batch).
  struct GemmIo {
    gpusim::Buffer<half_t> h;
    gpusim::Buffer<float> f;
    int rows, cols;
  };
  auto alloc_mat = [&](int rows, int cols) {
    GemmIo io;
    io.rows = rows;
    io.cols = cols;
    const auto count =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    if (fp32) {
      io.f = dev.alloc<float>(count);
    } else {
      io.h = dev.alloc<half_t>(count);
    }
    return io;
  };
  auto fill_mat = [&](GemmIo& io, float lo, float hi) {
    if (fp32) {
      fill_device(io.f, rng, lo, hi);
    } else {
      fill_device(io.h, rng, lo, hi);
    }
  };
  auto gemm = [&](const GemmIo& a, const GemmIo& w, GemmIo& c,
                  double mult) -> void {
    kernels::KernelRun run;
    if (fp32) {
      DenseDevice<float> da{a.f, a.rows, a.cols, a.cols, Layout::kRowMajor};
      DenseDevice<float> dw{w.f, w.rows, w.cols, w.cols, Layout::kRowMajor};
      DenseDevice<float> dc{c.f, c.rows, c.cols, c.cols, Layout::kRowMajor};
      run = kernels::sgemm_fpu(dev, da, dw, dc);
    } else {
      DenseDevice<half_t> da{a.h, a.rows, a.cols, a.cols, Layout::kRowMajor};
      DenseDevice<half_t> dw{w.h, w.rows, w.cols, w.cols, Layout::kRowMajor};
      DenseDevice<half_t> dc{c.h, c.rows, c.cols, c.cols, Layout::kRowMajor};
      run = kernels::hgemm_tcu(dev, da, dw, dc);
    }
    add_run(run, hw, params, mult, res.other_cycles);
  };

  // ---- allocations (reused across layers, like framework workspaces) --
  // The attention-score scratch is live for ALL heads and batch
  // elements simultaneously — the dominant Table 4 memory term.
  Cvs mask_host;
  CvsDevice mask{};
  std::vector<gpusim::Buffer<half_t>> sparse_scores;
  std::vector<gpusim::Buffer<half_t>> dense_scores_h;
  std::vector<gpusim::Buffer<float>> dense_scores_f;
  if (cfg.mode == Mode::kSparseHalf) {
    mask_host = make_attention_mask(seq, cfg.v, cfg.band, cfg.sparsity, rng);
    mask = to_device(dev, mask_host);
    const std::size_t nnz = mask_host.values.size();
    for (int i = 0; i < cfg.heads * cfg.batch; ++i) {
      sparse_scores.push_back(dev.alloc<half_t>(nnz));
    }
  } else {
    for (int i = 0; i < cfg.heads * cfg.batch; ++i) {
      const auto count =
          static_cast<std::size_t>(seq) * static_cast<std::size_t>(seq);
      if (fp32) {
        dense_scores_f.push_back(dev.alloc<float>(count));
      } else {
        dense_scores_h.push_back(dev.alloc<half_t>(count));
      }
    }
  }

  // Weights as one arena-style allocation (values random).
  GemmIo weights = alloc_mat(1, static_cast<int>(weight_elems));
  fill_mat(weights, -0.05f, 0.05f);
  // Views into the weight arena per matrix kind (same shapes each
  // layer; one layer's weights are executed, cycles scaled by layers
  // via the loop below).
  auto weight_view = [&](std::size_t offset, int rows, int cols) {
    GemmIo io;
    io.rows = rows;
    io.cols = cols;
    if (fp32) {
      io.f = gpusim::Buffer<float>(&dev, weights.f.addr(offset),
                                   static_cast<std::size_t>(rows) * cols);
    } else {
      io.h = gpusim::Buffer<half_t>(&dev, weights.h.addr(offset),
                                    static_cast<std::size_t>(rows) * cols);
    }
    return io;
  };

  // Activations (batch copies live at once; executed on element 0).
  std::vector<GemmIo> activations;
  for (int b = 0; b < cfg.batch; ++b) {
    activations.push_back(alloc_mat(seq, d));
  }
  fill_mat(activations[0], -1.0f, 1.0f);
  GemmIo q_act = alloc_mat(seq, d);
  GemmIo k_act = alloc_mat(seq, d);
  GemmIo v_act = alloc_mat(seq, d);
  GemmIo attn_out = alloc_mat(seq, d);
  GemmIo ffn_mid = alloc_mat(seq, cfg.ffn_dim);

  const float scale = 1.0f / std::sqrt(static_cast<float>(cfg.head_dim));

  for (int layer = 0; layer < cfg.layers; ++layer) {
    std::size_t woff = static_cast<std::size_t>(layer) *
                       (4u * d * d + 2u * static_cast<std::size_t>(d) *
                                         cfg.ffn_dim);
    GemmIo wq = weight_view(woff, d, d);
    GemmIo wk = weight_view(woff + static_cast<std::size_t>(d) * d, d, d);
    GemmIo wv = weight_view(woff + 2u * d * d, d, d);
    GemmIo wo = weight_view(woff + 3u * d * d, d, d);
    GemmIo w1 = weight_view(woff + 4u * d * d, d, cfg.ffn_dim);
    GemmIo w2 = weight_view(woff + 4u * d * d +
                                static_cast<std::size_t>(d) * cfg.ffn_dim,
                            cfg.ffn_dim, d);

    // QKV projections + output projection + FFN: "Others" in Fig. 20.
    gemm(activations[0], wq, q_act, per_batch);
    gemm(activations[0], wk, k_act, per_batch);
    gemm(activations[0], wv, v_act, per_batch);

    // ---- attention core, per head ------------------------------------
    if (cfg.mode == Mode::kSparseHalf) {
      DenseDevice<half_t> qh{q_act.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> kh{k_act.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> vh{v_act.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> oh{attn_out.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      AttentionBreakdown br =
          sparse_attention_head(dev, qh, kh, vh, mask, sparse_scores[0], oh);
      add_run(br.qk, hw, params, per_head_batch, res.qk_cycles);
      add_run(br.softmax, hw, params, per_head_batch, res.softmax_cycles);
      add_run(br.av, hw, params, per_head_batch, res.av_cycles);
    } else if (cfg.mode == Mode::kDenseHalf) {
      DenseDevice<half_t> qh{q_act.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> kh{k_act.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> vh{v_act.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> oh{attn_out.h, seq, cfg.head_dim, d,
                             Layout::kRowMajor};
      DenseDevice<half_t> scores{dense_scores_h[0], seq, seq, seq,
                                 Layout::kRowMajor};
      AttentionBreakdown br =
          dense_attention_head(dev, qh, kh, vh, scores, oh);
      add_run(br.qk, hw, params, per_head_batch, res.qk_cycles);
      add_run(br.softmax, hw, params, per_head_batch, res.softmax_cycles);
      add_run(br.av, hw, params, per_head_batch, res.av_cycles);
    } else {
      // Dense fp32: QKᵀ and AV with sgemm, fp32 softmax.
      DenseDevice<float> qh{q_act.f, seq, cfg.head_dim, d, Layout::kRowMajor};
      DenseDevice<float> kh{k_act.f, seq, cfg.head_dim, d, Layout::kRowMajor};
      DenseDevice<float> vh{v_act.f, seq, cfg.head_dim, d, Layout::kRowMajor};
      DenseDevice<float> oh{attn_out.f, seq, cfg.head_dim, d,
                            Layout::kRowMajor};
      DenseDevice<float> scores{dense_scores_f[0], seq, seq, seq,
                                Layout::kRowMajor};
      DenseDevice<float> kt{kh.buf, cfg.head_dim, seq, kh.ld,
                            Layout::kColMajor};
      kernels::KernelRun qk = kernels::sgemm_fpu(dev, qh, kt, scores);
      add_run(qk, hw, params, per_head_batch, res.qk_cycles);
      kernels::KernelRun sm = kernels::dense_softmax_f32(dev, scores, scale);
      add_run(sm, hw, params, per_head_batch, res.softmax_cycles);
      kernels::KernelRun av = kernels::sgemm_fpu(dev, scores, vh, oh);
      add_run(av, hw, params, per_head_batch, res.av_cycles);
    }

    // Output projection + FFN.
    gemm(attn_out, wo, activations[0], per_batch);
    gemm(activations[0], w1, ffn_mid, per_batch);
    gemm(ffn_mid, w2, activations[0], per_batch);
  }

  res.peak_memory_bytes = dev.peak_bytes();
  return res;
}

}  // namespace vsparse::transformer
