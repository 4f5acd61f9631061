#include "vsparse/kernels/sddmm/sddmm_wmma.hpp"

#include <algorithm>
#include <string>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/kernels/sddmm/k_tile_fold.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::AddrLanes;
using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;
using sddmm_detail::kTileK;

constexpr int kTileN = sddmm_detail::kMaxCols;  // a multiple of 32 (§6.2)

}  // namespace

KernelRun sddmm_wmma_warp(gpusim::Device& dev, const DenseDevice<half_t>& a,
                          const DenseDevice<half_t>& b, const CvsDevice& mask,
                          gpusim::Buffer<half_t>& out_values,
                          const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int v = mask.v;
  VSPARSE_CHECK(b.rows == k);
  VSPARSE_CHECK(mask.rows == m && mask.cols == n);
  VSPARSE_CHECK(a.layout == Layout::kRowMajor);
  VSPARSE_CHECK(b.layout == Layout::kColMajor);
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
  // The classic mapping coalesces its 16 B-grain fragments through
  // shared memory (§6.2: achieving guideline V here violates IV) —
  // the source of its Short Scoreboard stalls (Table 3).
  cfg.smem_bytes = 8192;
  cfg.profile = {
      .name = "sddmm_wmma_v" + std::to_string(v),
      // The LHS fragment is replicated across the four thread groups
      // (Fig. 13), costing ~4x its registers (§6.2).
      .regs_per_thread = 32 + 8 * v,
      .static_instrs = 420 + 8 * v,
      .icache_pressure = 1.0,
      .ilp_factor = 0.8,
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
    if (j0 >= end) return;
    const int jcnt = std::min<std::int32_t>(kTileN, end - j0);

    std::int32_t cols[kTileN];
    {
      // Consecutive int32 slots: an affine span with a prefix mask.
      const std::uint32_t msk =
          jcnt >= 32 ? 0xFFFFFFFFu : (1u << jcnt) - 1u;
      Lanes<std::int32_t> d{};
      w.ldg_span(mask.col_idx.addr(static_cast<std::size_t>(j0)), 4, d, msk);
      for (int l = 0; l < jcnt; ++l) cols[l] = d[static_cast<std::size_t>(l)];
    }

    float acc[kTileN][8] = {};

    for (int k0 = 0; k0 < k; k0 += kTileK) {
      const int kcnt = std::min(kTileK, k - k0);

      // ---- LHS fragment with the classic layout: each lane loads 8
      // contiguous halves, but lanes of a thread group hold the SAME
      // 16-element row slices (4 copies across groups) and consecutive
      // lanes sit 16 elements apart -> 16 B coalescing (§6.2).
      // Lane 8g+r reads k slice 16*(r % 4): eight 4-lane segments (two
      // per thread group) that all share the row base and stride 32 B —
      // the replication is the repeated-segment form of the span.
      const std::uint32_t kprefix =
          kcnt >= 64 ? 0xFu : (1u << ceil_div(kcnt, 16)) - 1u;
      std::uint32_t amask = 0;
      for (int seg = 0; seg < 8; ++seg) amask |= kprefix << (4 * seg);
      for (int t = 0; t < v; ++t) {
        std::uint64_t gbase[8];
        for (int seg = 0; seg < 8; ++seg) {
          gbase[seg] = a.addr(vr * v + t, k0);
        }
        Lanes<half8> d{};
        w.count(Op::kImad, 1);
        w.ldg_span(gbase, 8, 4, 32, d, amask);
      }

      // ---- RHS fragment (the 32 B columns), 16 B coalesced ----------
      // Per 4 wmma k-chunks: each lane loads an 8-half piece of one
      // column; columns are scattered by the sparsity pattern.
      for (int pass = 0; pass < 8; ++pass) {
        AddrLanes addr{};
        Lanes<half8> d{};
        std::uint32_t msk = 0;
        for (int lane = 0; lane < 32; ++lane) {
          const int j = 8 * (pass % 4) + lane % 8;
          const int kk = 8 * (lane / 8) + 32 * (pass / 4);
          if (j >= jcnt || kk >= kcnt) continue;
          addr[static_cast<std::size_t>(lane)] = b.addr(k0 + kk, cols[j]);
          msk |= 1u << lane;
        }
        w.count(Op::kImad, 1);
        w.ldg(addr, d, msk);
        // Round-trip through smem to fix up the 16 B-coalesced layout;
        // the staging slots are consecutive 16 B chunks — affine spans.
        w.sts_span(0, 16, d, msk);
        Lanes<half8> d2{};
        w.lds_span(0, 16, d2, msk);
      }

      // ---- 4 zero-padded wmma.m8n32k16 per K stride ------------------
      // Executed regardless of jcnt (the §6.2 residue overhead).
      w.count(Op::kHmma, 64);
      sddmm_detail::fold_k_tile(a_host.data(), a.ld, b_host.data(), b.ld,
                                vr * v, k0, kcnt, cols, jcnt, v, acc);
    }

    // ---- mask, convert, write back ------------------------------------
    w.count(Op::kHfma, static_cast<std::uint64_t>(v));
    w.count(Op::kCvt, static_cast<std::uint64_t>(v));
    {
      // One output vector per lane, contiguous in the CVS value array:
      // an affine span of stride V*2 with a prefix mask.
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
