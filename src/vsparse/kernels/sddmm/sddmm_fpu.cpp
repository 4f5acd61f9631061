#include "vsparse/kernels/sddmm/sddmm_fpu.hpp"

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
using sddmm_detail::kTileK;  // K slice per stride; 8 per thread (LDG.128)

constexpr int kSubwarpSize = 8;
constexpr int kSubwarps = 4;

template <class T>
KernelRun sddmm_fpu_impl(gpusim::Device& dev, const DenseDevice<T>& a,
                         const DenseDevice<T>& b, const CvsDeviceT<T>& mask,
                         gpusim::Buffer<T>& out_values,
                         const SddmmFpuParams& params,
                         const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int v = mask.v;
  VSPARSE_CHECK(b.rows == k);
  VSPARSE_CHECK(mask.rows == m && mask.cols == n);
  VSPARSE_CHECK(a.layout == Layout::kRowMajor);
  VSPARSE_CHECK(b.layout == Layout::kColMajor);
  sddmm_detail::check_16b_aligned(a, "A");
  sddmm_detail::check_16b_aligned(b, "B");
  VSPARSE_CHECK(v == 1 || v == 2 || v == 4 || v == 8);
  VSPARSE_CHECK(out_values.size() ==
                mask.col_idx.size() * static_cast<std::size_t>(v));
  const int tile_n = params.tile_n;
  VSPARSE_CHECK(tile_n >= 1 && tile_n <= 8);  // CTA covers 4*tile_n <= 32

  const int vec_rows = mask.vec_rows();
  // CTA covers 4 subwarp tiles of one vector-row; grid sized for the
  // dense worst case with early exit, as the TCU kernels do.
  const int n_tiles = ceil_div(n, tile_n * kSubwarps);

  gpusim::LaunchConfig cfg;
  cfg.grid = vec_rows * n_tiles;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 0;
  cfg.profile = {
      .name = std::string(sizeof(T) == 2 ? "sddmm_fpu_v" : "sddmm_fpu_f32_v") +
              std::to_string(v),
      // V x TileN fp32 partial sums per thread + operand buffers; V=8
      // spills (§6.1).
      .regs_per_thread = std::min(255, 28 + 2 * v * tile_n),
      .static_instrs = 2400 + 30 * v,  // Table 3 anchor: ~6% No-Instr
      .icache_pressure = 1.0,
      .ilp_factor = 1.0,
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
      w.count(Op::kImad, 4);
    }
    const std::int32_t begin = row_ptr[static_cast<std::size_t>(vr)];
    const std::int32_t end = row_ptr[static_cast<std::size_t>(vr) + 1];
    const std::int32_t j0 = begin + tile * tile_n * kSubwarps;
    if (j0 >= end) return;
    const int jcnt =
        std::min<std::int32_t>(tile_n * kSubwarps, end - j0);

    // Column indices for the CTA's vectors (one coalesced LDG.32):
    // consecutive int32 slots, an affine span with a prefix mask.
    // Vector j = s * tile_n + lj belongs to subwarp s.
    std::int32_t cols[sddmm_detail::kMaxCols];
    {
      const std::uint32_t msk =
          jcnt >= 32 ? 0xFFFFFFFFu : (1u << jcnt) - 1u;
      Lanes<std::int32_t> d{};
      w.ldg_span(mask.col_idx.addr(static_cast<std::size_t>(j0)), 4, d, msk);
      for (int l = 0; l < jcnt; ++l) {
        cols[l] = d[static_cast<std::size_t>(l)];
      }
    }

    // acc[j][t] fp32 partial sums (per-thread V x TileN in the real
    // kernel; threads' K slices are summed at the end).
    float acc[sddmm_detail::kMaxCols][8] = {};

    for (int k0 = 0; k0 < k; k0 += kTileK) {
      const int kcnt = std::min(kTileK, k - k0);
      // ---- A rows: each thread loads its 8-wide K slice of each of
      // the V rows (redundantly per subwarp — no smem, §6.1).
      // Lane (8s + t) reads the 8-wide slice at k0 + 8t of the same A
      // row: four 8-lane segments sharing one base (the redundant
      // per-subwarp broadcast), each striding the row.
      const int nt = std::min(kSubwarpSize, ceil_div(kcnt, 8));
      const std::uint32_t seg_prefix = (nt >= 8 ? 0xFFu : (1u << nt) - 1u);
      const std::uint32_t kmask = seg_prefix * 0x01010101u;  // x4 segments
      for (int t = 0; t < v; ++t) {
        std::uint64_t gbase[kSubwarps];
        for (int s = 0; s < kSubwarps; ++s) {
          gbase[s] = a.addr(vr * v + t, k0);
        }
        w.count(Op::kImad, 1);
        if constexpr (sizeof(T) == 2) {
          Lanes<std::array<T, 8>> d{};
          w.ldg_span(gbase, kSubwarps, kSubwarpSize, 16, d, kmask);
        } else {
          // fp32: 8 floats = 32 B -> two LDG.128.
          Lanes<std::array<T, 4>> d{};
          w.ldg_span(gbase, kSubwarps, kSubwarpSize, 32, d, kmask);
          for (auto& x : gbase) x += 16;
          w.ldg_span(gbase, kSubwarps, kSubwarpSize, 32, d, kmask);
        }
      }
      // ---- per output vector: B column slices + MACs ----------------
      for (int lj = 0; lj < tile_n; ++lj) {
        // All four subwarps issue together: lane (8s+t) loads column
        // cols[s*tile_n + lj], k slice 8t — a four-segment span whose
        // bases are the gathered column starts, each segment striding
        // its B column; segments past jcnt drop out of the mask.
        std::uint64_t gbase[kSubwarps] = {};
        std::uint32_t msk = 0;
        for (int s = 0; s < kSubwarps; ++s) {
          const int j = s * tile_n + lj;
          if (j >= jcnt) continue;
          gbase[s] = b.addr(k0, cols[j]);
          msk |= seg_prefix << (kSubwarpSize * s);
        }
        // Per-column address arithmetic on the gathered indices (the
        // dominant "Wait" source the paper profiles for this kernel).
        w.count(Op::kImad, 6);
        w.count(Op::kIadd3, 2);
        if (msk == 0) continue;
        if constexpr (sizeof(T) == 2) {
          Lanes<std::array<T, 8>> d{};
          w.ldg_span(gbase, kSubwarps, kSubwarpSize, 16, d, msk);
        } else {
          Lanes<std::array<T, 4>> d{};
          w.ldg_span(gbase, kSubwarps, kSubwarpSize, 32, d, msk);
          std::uint64_t gb2[kSubwarps];
          for (int s = 0; s < kSubwarps; ++s) gb2[s] = gbase[s] + 16;
          w.ldg_span(gb2, kSubwarps, kSubwarpSize, 32, d, msk);
        }
        // MACs: 8 per thread per (v, lj); fp16 multiplies pair into
        // HMUL2, the fp32 accumulation stays scalar FADD.
        if constexpr (sizeof(T) == 2) {
          w.count(Op::kHfma, static_cast<std::uint64_t>(4 * v));
          w.count(Op::kFfma, static_cast<std::uint64_t>(8 * v));
        } else {
          w.count(Op::kFfma, static_cast<std::uint64_t>(8 * v));
        }
      }
      // Functional math for every active (s, lj) of the k-tile.
      sddmm_detail::fold_k_tile(a_host.data(), a.ld, b_host.data(), b.ld,
                                vr * v, k0, kcnt, cols, jcnt, v, acc);
    }

    // ---- subwarp butterfly reduction: 3 rounds per partial sum -------
    w.count(Op::kShfl, static_cast<std::uint64_t>(3 * v * tile_n));
    w.count(Op::kFfma, static_cast<std::uint64_t>(3 * v * tile_n));

    // ---- apply mask and write back ------------------------------------
    if constexpr (sizeof(T) == 2) {
      w.count(Op::kCvt, static_cast<std::uint64_t>(v));
    }
    for (int pass = 0; pass < ceil_div(jcnt, 32); ++pass) {
      // The output vectors are consecutive: an affine span of stride
      // v*sizeof(T) with a prefix mask.
      const int nl = std::min(32, jcnt - pass * 32);
      const std::uint32_t msk = nl >= 32 ? 0xFFFFFFFFu : (1u << nl) - 1u;
      const std::uint64_t obase = out_values.addr(
          static_cast<std::size_t>(j0 + pass * 32) *
          static_cast<std::size_t>(v));
      Lanes<std::array<T, 8>> frag{};
      for (int lane = 0; lane < nl; ++lane) {
        const int l = pass * 32 + lane;
        for (int t = 0; t < v; ++t) {
          const float mv = static_cast<float>(
              mask_vals[static_cast<std::size_t>(j0 + l) *
                            static_cast<std::size_t>(v) +
                        static_cast<std::size_t>(t)]);
          frag[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)] =
              T(acc[l][t] * mv);
        }
      }
      // Width V elements per lane.
      const auto vbytes = static_cast<std::uint32_t>(v * sizeof(T));
      switch (static_cast<int>(v * sizeof(T))) {
        case 2: {
          Lanes<std::array<std::byte, 2>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 2);
          w.stg_span(obase, vbytes, d, msk);
          break;
        }
        case 4: {
          Lanes<std::array<std::byte, 4>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 4);
          w.stg_span(obase, vbytes, d, msk);
          break;
        }
        case 8: {
          Lanes<std::array<std::byte, 8>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 8);
          w.stg_span(obase, vbytes, d, msk);
          break;
        }
        case 16: {
          Lanes<std::array<std::byte, 16>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 16);
          w.stg_span(obase, vbytes, d, msk);
          break;
        }
        default: {  // fp32 V=8: two 16 B stores at stride 32
          if constexpr (sizeof(T) == 4) {
            Lanes<std::array<std::byte, 16>> lo{}, hi{};
            for (int l = 0; l < 32; ++l) {
              std::memcpy(lo[static_cast<std::size_t>(l)].data(),
                          frag[static_cast<std::size_t>(l)].data(), 16);
              std::memcpy(hi[static_cast<std::size_t>(l)].data(),
                          reinterpret_cast<const std::byte*>(
                              frag[static_cast<std::size_t>(l)].data()) +
                              16,
                          16);
            }
            w.stg_span(obase, vbytes, lo, msk);
            w.stg_span(obase + 16, vbytes, hi, msk);
          }
          break;
        }
      }
    }
  }, sim);

  return {stats, cfg};
}

}  // namespace

KernelRun sddmm_fpu_subwarp(gpusim::Device& dev, const DenseDevice<half_t>& a,
                            const DenseDevice<half_t>& b,
                            const CvsDevice& mask,
                            gpusim::Buffer<half_t>& out_values,
                            const SddmmFpuParams& params,
                            const gpusim::SimOptions& sim) {
  return sddmm_fpu_impl<half_t>(dev, a, b, mask, out_values, params, sim);
}

KernelRun sddmm_fpu_subwarp_f32(gpusim::Device& dev,
                                const DenseDevice<float>& a,
                                const DenseDevice<float>& b,
                                const CvsDeviceT<float>& mask,
                                gpusim::Buffer<float>& out_values,
                                const SddmmFpuParams& params,
                                const gpusim::SimOptions& sim) {
  return sddmm_fpu_impl<float>(dev, a, b, mask, out_values, params, sim);
}

}  // namespace vsparse::kernels
