#include "vsparse/kernels/sddmm/sddmm_octet.hpp"

#include <algorithm>
#include <string>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/kernels/sddmm/k_tile_fold.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;
using sddmm_detail::kTileK;

constexpr int kTileN = sddmm_detail::kMaxCols;  // vectors per CTA (§6.4)

const char* mode_suffix(InvertedPatternMode mode) {
  switch (mode) {
    case InvertedPatternMode::kExtraRegisters:
      return "reg";
    case InvertedPatternMode::kShuffle:
      return "shfl";
    case InvertedPatternMode::kArchSwitch:
      return "arch";
  }
  return "?";
}

}  // namespace

KernelRun sddmm_octet(gpusim::Device& dev, const DenseDevice<half_t>& a,
                      const DenseDevice<half_t>& b, const CvsDevice& mask,
                      gpusim::Buffer<half_t>& out_values,
                      const SddmmOctetParams& params,
                      const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int v = mask.v;
  VSPARSE_CHECK(b.rows == k);
  VSPARSE_CHECK(mask.rows == m && mask.cols == n);
  VSPARSE_CHECK(a.layout == Layout::kRowMajor);
  VSPARSE_CHECK_MSG(b.layout == Layout::kColMajor,
                    "sddmm expects a column-major RHS (§4.1)");
  sddmm_detail::check_16b_aligned(a, "A");
  sddmm_detail::check_16b_aligned(b, "B");
  VSPARSE_CHECK(v == 2 || v == 4 || v == 8);
  VSPARSE_CHECK(out_values.size() ==
                mask.col_idx.size() * static_cast<std::size_t>(v));

  const int vec_rows = mask.vec_rows();
  const int n_tiles = ceil_div(n, kTileN);

  gpusim::LaunchConfig cfg;
  cfg.grid = vec_rows * n_tiles;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 0;  // both operands go straight to registers
  const bool reg_mode = params.mode == InvertedPatternMode::kExtraRegisters;
  const bool shfl_mode = params.mode == InvertedPatternMode::kShuffle;
  cfg.profile = {
      .name = std::string("sddmm_octet_") + mode_suffix(params.mode) + "_v" +
              std::to_string(v),
      // mma(arch) uses ~33% fewer registers than mma(reg) (§7.3.2).
      .regs_per_thread = reg_mode ? 24 + 8 * v : 24 + 5 * v,
      .static_instrs = 380 + 8 * v + (shfl_mode ? 64 : 0),
      .icache_pressure = 1.0,
      .ilp_factor = 0.7,
  };

  auto row_ptr = mask.row_ptr.host();
  auto mask_vals = mask.values.host();
  auto a_host = a.buf.host();
  auto b_host = b.buf.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int vr = cta.cta_id() / n_tiles;
    const int tile = cta.cta_id() % n_tiles;
    Warp w = cta.warp(0);

    {
      // Two consecutive int32 row-pointer slots: a 4-byte-stride span.
      Lanes<std::int32_t> d{};
      w.ldg_span(mask.row_ptr.addr(static_cast<std::size_t>(vr)), 4, d, 0x3u);
      w.count(Op::kImad, 3);
    }
    const std::int32_t begin = row_ptr[static_cast<std::size_t>(vr)];
    const std::int32_t end = row_ptr[static_cast<std::size_t>(vr) + 1];
    const std::int32_t j0 = begin + tile * kTileN;
    if (j0 >= end) return;  // early-exit CTA (most of them at high sparsity)
    const int jcnt = std::min<std::int32_t>(kTileN, end - j0);

    // The tile's 32 column indices (one coalesced LDG.32): consecutive
    // int32 slots, an affine span with a prefix mask.
    std::int32_t cols[kTileN];
    {
      const std::uint32_t msk =
          jcnt >= 32 ? 0xFFFFFFFFu : (1u << jcnt) - 1u;
      Lanes<std::int32_t> d{};
      w.ldg_span(mask.col_idx.addr(static_cast<std::size_t>(j0)), 4, d, msk);
      w.count(Op::kImad, 2);
      for (int l = 0; l < jcnt; ++l) {
        cols[l] = d[static_cast<std::size_t>(l)];
      }
    }

    // fp32 partial sums: acc[j][t] for the 32 output vectors.
    float acc[kTileN][8] = {};

    for (int k0 = 0; k0 < k; k0 += kTileK) {
      const int kcnt = std::min(kTileK, k - k0);

      // ---- A fragment: V rows x 64 ks, LDG.128 straight to registers.
      // 8 lanes per row; V = 8 needs two passes.  Each pass is a
      // four-segment span: segment s sweeps row vr*v + (4*pass + s) at
      // 16 B stride; rows past V drop whole segments, K past kcnt a
      // per-segment prefix.
      const std::uint32_t kprefix =
          kcnt >= 64 ? 0xFFu : (1u << ceil_div(kcnt, 8)) - 1u;
      for (int pass = 0; pass < ceil_div(v * 8, 32); ++pass) {
        std::uint64_t gbase[4] = {};
        Lanes<half8> d{};
        std::uint32_t msk = 0;
        for (int seg = 0; seg < 4; ++seg) {
          const int t = pass * 4 + seg;
          if (t >= v) continue;
          gbase[seg] = a.addr(vr * v + t, k0);
          msk |= kprefix << (8 * seg);
        }
        w.count(Op::kImad, 1);
        w.ldg_span(gbase, 4, 8, 16, d, msk);
      }

      // ---- 4 sub-steps of 8 output vectors each --------------------
      for (int ss = 0; ss < 4; ++ss) {
        const int jbase = 8 * ss;
        if (jbase >= jcnt) break;
        // B fragment: 8 columns x 64 ks, two LDG.128 (8 128 B
        // transactions — each column is contiguous in the col-major B).
        // Four-segment gather span per pass: segment bases are the
        // gathered column starts, 16 B lane stride down each column.
        for (int pass = 0; pass < 2; ++pass) {
          std::uint64_t gbase[4] = {};
          Lanes<half8> d{};
          std::uint32_t msk = 0;
          for (int seg = 0; seg < 4; ++seg) {
            const int j = jbase + pass * 4 + seg;
            if (j >= jcnt) continue;
            gbase[seg] = b.addr(k0, cols[j]);
            msk |= kprefix << (8 * seg);
          }
          w.count(Op::kImad, 1);
          w.ldg_span(gbase, 4, 8, 16, d, msk);
        }
        // Four mma.m8n8k4 per sub-step: each octet owns a 16-wide K
        // slice of the (8 x 64)·(64 x V) switched product.
        w.count(Op::kHmma, 16);
        if (shfl_mode) {
          // Source operands of the inverted steps are exchanged between
          // thread groups i and i+4 before issue.
          w.count(Op::kShfl, 8);
        }
      }
      // Functional math for the whole k-tile (operands were loaded
      // above; values are identical to the fragment contents).
      sddmm_detail::fold_k_tile(a_host.data(), a.ld, b_host.data(), b.ld,
                                vr * v, k0, kcnt, cols, jcnt, v, acc);
    }

    // ---- combine the octet partial sums with warp shuffles ----------
    w.count(Op::kShfl, static_cast<std::uint64_t>(2 * v));
    w.count(Op::kFfma, static_cast<std::uint64_t>(2 * v));
    if (reg_mode) {
      // Merge the second accumulator set kept for the inverted steps.
      w.count(Op::kFfma, static_cast<std::uint64_t>(v));
    }

    // ---- apply the mask values and write back -----------------------
    w.count(Op::kHfma, static_cast<std::uint64_t>(v));
    w.count(Op::kCvt, static_cast<std::uint64_t>(v));
    {
      // One output vector per lane: width V*2 bytes, contiguous in the
      // CVS value array (perfectly coalesced) — an affine span of
      // stride V*2 with a prefix mask.
      const std::uint64_t obase = out_values.addr(
          static_cast<std::size_t>(j0) * static_cast<std::size_t>(v));
      const auto ostride = static_cast<std::uint32_t>(v) * 2u;
      const std::uint32_t msk =
          jcnt >= 32 ? 0xFFFFFFFFu : (1u << jcnt) - 1u;
      const auto fill = [&](auto& frag) {
        for (int l = 0; l < jcnt; ++l) {
          for (int t = 0; t < v; ++t) {
            const float mv = static_cast<float>(
                mask_vals[static_cast<std::size_t>(j0 + l) *
                              static_cast<std::size_t>(v) +
                          static_cast<std::size_t>(t)]);
            frag[static_cast<std::size_t>(l)][t] = half_t(acc[l][t] * mv);
          }
        }
      };
      switch (v) {
        case 2: {
          Lanes<half2> frag{};
          fill(frag);
          w.stg_span(obase, ostride, frag, msk);
          break;
        }
        case 4: {
          Lanes<half4> frag{};
          fill(frag);
          w.stg_span(obase, ostride, frag, msk);
          break;
        }
        default: {
          Lanes<half8> frag{};
          fill(frag);
          w.stg_span(obase, ostride, frag, msk);
          break;
        }
      }
    }
  }, sim);

  return {stats, cfg};
}

}  // namespace vsparse::kernels
