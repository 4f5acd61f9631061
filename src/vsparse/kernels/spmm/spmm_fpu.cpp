#include "vsparse/kernels/spmm/spmm_fpu.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

constexpr int kSubwarpSize = 8;
constexpr int kSubwarps = 4;  // per CTA (one warp)

template <class T>
KernelRun spmm_fpu_impl(gpusim::Device& dev, const CvsDeviceT<T>& a,
                        const DenseDevice<T>& b, DenseDevice<T>& c,
                        const SpmmFpuParams& params,
                        const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int v = a.v;
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(b.layout == Layout::kRowMajor &&
                c.layout == Layout::kRowMajor);
  VSPARSE_CHECK(v == 1 || v == 2 || v == 4 || v == 8);
  const int tile_n = params.tile_n;
  const int tile_k = params.tile_k;
  const int wt = tile_n / kSubwarpSize;  ///< output columns per thread
  // Each lane loads its wt-wide B slice as one 2, 4, 8 or 16 B access:
  // tile_n 8/16/32/64 in half, 8/16/32 in float.
  const int slice_bytes = wt * static_cast<int>(sizeof(T));
  VSPARSE_CHECK_MSG(tile_n % kSubwarpSize == 0 &&
                        (slice_bytes == 2 || slice_bytes == 4 ||
                         slice_bytes == 8 || slice_bytes == 16),
                    "tile_n=" << tile_n << " gives a " << slice_bytes
                              << " B B-slice per lane; the "
                              << sizeof(T) * 8
                              << "-bit kernel runs 2, 4, 8 or 16 B slices");
  VSPARSE_CHECK_MSG(n % tile_n == 0, "N must be a multiple of TileN="
                                         << tile_n);
  VSPARSE_CHECK(tile_k % 16 == 0 && tile_k <= 64);

  const int vec_rows = a.vec_rows();
  const int n_tiles = n / tile_n;
  const int row_groups = ceil_div(vec_rows, kSubwarps);

  gpusim::LaunchConfig cfg;
  cfg.grid = row_groups * n_tiles;
  cfg.cta_threads = 32;
  cfg.smem_bytes = static_cast<std::size_t>(kSubwarps) * tile_k *
                       (4 + static_cast<std::size_t>(v) * sizeof(T)) +
                   16;  // historical tail slack; kept so occupancy
                        // (smem per CTA) matches the calibrated model
  // Calibration (§7.2.2): the fully-unrolled V x TileK x (TileN/8)
  // loops produce 3776 / 6968 SASS lines at V = 4 / 8 (TileK=16, wt=2).
  cfg.profile = {
      .name = std::string(sizeof(T) == 2 ? "spmm_fpu_v" : "spmm_fpu_f32_v") +
              std::to_string(v),
      .regs_per_thread = 24 + 2 * v * wt,
      .static_instrs = 600 + 25 * v * tile_k * wt,
      .icache_pressure = 1.0,
      .ilp_factor = 1.0,
  };

  auto row_ptr = a.row_ptr.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    // Row groups enumerate fastest (B-slice L1 reuse, as in Sputnik).
    const int vr0 = (cta.cta_id() % row_groups) * kSubwarps;
    const int n0 = (cta.cta_id() / row_groups) * tile_n;
    Warp w = cta.warp(0);

    // Row extents for the 4 vector-rows (one LDG.32, 5 lanes, affine).
    {
      Lanes<std::int32_t> dst{};
      std::uint32_t mask = 0;
      for (int l = 0; l < 5 && vr0 + l <= vec_rows; ++l) mask |= 1u << l;
      w.ldg_span(a.row_ptr.addr(static_cast<std::size_t>(vr0)), 4, dst, mask);
      w.count(Op::kImad, 4);
    }
    std::int32_t begin[kSubwarps], cnt[kSubwarps];
    int max_cnt = 0;
    for (int s = 0; s < kSubwarps; ++s) {
      if (vr0 + s < vec_rows) {
        begin[s] = row_ptr[static_cast<std::size_t>(vr0 + s)];
        cnt[s] = row_ptr[static_cast<std::size_t>(vr0 + s) + 1] - begin[s];
      } else {
        begin[s] = 0;
        cnt[s] = 0;
      }
      max_cnt = std::max(max_cnt, cnt[s]);
    }

    // Per-subwarp fp32 accumulators for the V x TileN tile (zero only
    // the [v][tile_n] region the parameters actually use).
    float acc[kSubwarps][8][64];
    for (int s = 0; s < kSubwarps; ++s) {
      for (int vv = 0; vv < v; ++vv) {
        std::memset(acc[s][vv], 0,
                    static_cast<std::size_t>(tile_n) * sizeof(float));
      }
    }

    const auto idx_off = [&](int s, int j) {
      return static_cast<std::uint32_t>((s * tile_k + j) * 4);
    };
    const auto val_off = [&](int s, int j, int t) {
      return static_cast<std::uint32_t>(kSubwarps * tile_k * 4 +
                                        ((s * tile_k + j) * v + t) *
                                            static_cast<int>(sizeof(T)));
    };
    const auto staged_idx = [&](int s, int j) {
      return *reinterpret_cast<const std::int32_t*>(cta.smem() +
                                                    idx_off(s, j));
    };
    const auto staged_val = [&](int s, int j, int t) {
      return static_cast<float>(
          *reinterpret_cast<const T*>(cta.smem() + val_off(s, j, t)));
    };

    const int steps = ceil_div(max_cnt, tile_k);
    for (int step = 0; step < steps; ++step) {
      const int i0 = step * tile_k;

      // ---- stage LHS indices: each lane takes two consecutive ints of
      // its subwarp's chunk per pass (one LDG.64 when tile_k=16).  Each
      // subwarp reads an affine run, so the whole pass is one 4-segment
      // span (active lanes form a per-segment prefix). ----------------
      for (int p = 0; p < tile_k / 16; ++p) {
        Lanes<std::array<std::int32_t, 2>> dst{};
        std::uint64_t gbase[kSubwarps] = {};
        std::uint32_t sbase[kSubwarps] = {};
        std::uint32_t mask = 0;
        for (int s = 0; s < kSubwarps; ++s) {
          const int rem = cnt[s] - (i0 + 16 * p);  // indices left this pass
          const int nt = std::clamp((rem + 1) / 2, 0, kSubwarpSize);
          if (nt == 0) continue;
          gbase[s] = a.col_idx.addr(
              static_cast<std::size_t>(begin[s] + i0 + 16 * p));
          sbase[s] = idx_off(s, 16 * p);
          mask |= ((1u << nt) - 1u) << (kSubwarpSize * s);
        }
        w.count(Op::kImad, 2);
        w.ldg_span(gbase, kSubwarps, kSubwarpSize, 8, dst, mask);
        w.sts_span(sbase, kSubwarps, kSubwarpSize, 8, dst, mask);
      }

      // ---- stage LHS values: one V-vector per lane per pass (same
      // 4-segment span shape, stride = the vector's byte size). --------
      const int passes = tile_k / kSubwarpSize;
      const std::uint32_t vbytes =
          static_cast<std::uint32_t>(v) * static_cast<std::uint32_t>(sizeof(T));
      for (int p = 0; p < passes; ++p) {
        const int j0 = p * kSubwarpSize;
        std::uint64_t gbase[kSubwarps] = {};
        std::uint32_t sbase[kSubwarps] = {};
        std::uint32_t mask = 0;
        for (int s = 0; s < kSubwarps; ++s) {
          const int nt = std::clamp(cnt[s] - (i0 + j0), 0, kSubwarpSize);
          if (nt == 0) continue;
          gbase[s] = a.values.addr(static_cast<std::size_t>(begin[s] + i0 + j0) *
                                   static_cast<std::size_t>(v));
          sbase[s] = val_off(s, j0, 0);
          mask |= ((1u << nt) - 1u) << (kSubwarpSize * s);
        }
        w.count(Op::kImad, 2);
        switch (static_cast<int>(vbytes)) {
          case 2: {
            Lanes<std::array<std::byte, 2>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            w.sts_span(sbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            break;
          }
          case 4: {
            Lanes<std::array<std::byte, 4>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            w.sts_span(sbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            break;
          }
          case 8: {
            Lanes<std::array<std::byte, 8>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            w.sts_span(sbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            break;
          }
          case 16: {
            Lanes<std::array<std::byte, 16>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            w.sts_span(sbase, kSubwarps, kSubwarpSize, vbytes, d, mask);
            break;
          }
          default: {  // float V=8: 32 B per vector, two LDG.128/STS.128
            std::uint64_t gb2[kSubwarps];
            std::uint32_t sb2[kSubwarps];
            for (int s = 0; s < kSubwarps; ++s) {
              gb2[s] = gbase[s] + 16;
              sb2[s] = sbase[s] + 16;
            }
            Lanes<std::array<std::byte, 16>> lo, hi;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, vbytes, lo, mask);
            w.ldg_span(gb2, kSubwarps, kSubwarpSize, vbytes, hi, mask);
            w.sts_span(sbase, kSubwarps, kSubwarpSize, vbytes, lo, mask);
            w.sts_span(sb2, kSubwarps, kSubwarpSize, vbytes, hi, mask);
            break;
          }
        }
      }

      // ---- walk the staged nonzeros (fully unrolled in SASS) ---------
      for (int kk = 0; kk < tile_k; ++kk) {
        std::uint32_t active = 0;
        for (int s = 0; s < kSubwarps; ++s) {
          if (i0 + kk < cnt[s]) {
            active |= 0xFFu << (8 * s);
          }
        }
        if (active == 0) continue;

        // Broadcast LDS of the staged values for this k (indices stay
        // in registers after staging, as Sputnik does).  The read is no
        // wider than the staged vector (LDS.U16 when a value slot is a
        // single half): a fixed 4B read would over-read the last staged
        // entry into bytes no sts ever wrote.
        {
          std::uint32_t soff[kSubwarps];
          for (int s = 0; s < kSubwarps; ++s) soff[s] = val_off(s, kk, 0);
          if (static_cast<int>(v * sizeof(T)) == 2) {
            Lanes<std::array<std::byte, 2>> d{};
            w.lds_span(soff, kSubwarps, kSubwarpSize, 0, d, active);
          } else {
            Lanes<std::array<std::byte, 4>> d{};
            w.lds_span(soff, kSubwarps, kSubwarpSize, 0, d, active);
          }
        }
        w.count(Op::kImad, 2);
        w.count(Op::kIadd3, 1);

        // Load each thread's B-row slice straight to registers: each
        // subwarp strides through one B row, a 4-segment affine span.
        std::uint64_t gbase[kSubwarps] = {};
        for (int s = 0; s < kSubwarps; ++s) {
          if (!(active & (1u << (kSubwarpSize * s)))) continue;
          gbase[s] = b.addr(staged_idx(s, kk), n0);
        }
        // MACs: V * wt per thread.  Half precision uses HMUL + FADD
        // (fp32 accumulate, §3.1); single uses FFMA.  Lane t of subwarp
        // s holds columns [kWt*t, kWt*t + kWt) of the B row, and the
        // subwarp's 8 lanes sit contiguously in the span destination,
        // so together they are the row's kCols = tile_n columns in
        // order.  The host copies them out through the whole Lanes
        // object (one lane's data() does not reach its neighbours),
        // widens them in one batch (exact), and updates
        // acc[s][vv][0..kCols) in one loop per vv.  Each accumulator
        // still receives exactly one += av * b per staged nonzero, in
        // staging order, so results are bit-identical to a per-lane
        // loop.  Only subwarps the span wrote are read.  The
        // slice-width switch below fixes kCols at compile time, so the
        // MAC loop fully unrolls and vectorizes.
        const auto mac = [&]<std::size_t SB>(
                             const Lanes<std::array<std::byte, SB>>& d) {
          constexpr int kWt = static_cast<int>(SB / sizeof(T));
          constexpr int kCols = kSubwarpSize * kWt;
          static_assert(sizeof(d) == 32 * SB);
          if constexpr (sizeof(T) == 2) {
            w.count(Op::kHfma, static_cast<std::uint64_t>(v * kWt));
            w.count(Op::kFfma, static_cast<std::uint64_t>(v * kWt));
          } else {
            w.count(Op::kFfma, static_cast<std::uint64_t>(v * kWt));
          }
          const auto* lanes = reinterpret_cast<const std::byte*>(&d);
          for (int s = 0; s < kSubwarps; ++s) {
            if (!(active & (1u << (kSubwarpSize * s)))) continue;
            float av[8];
            float bf[kCols];
            const std::byte* row = lanes + kSubwarpSize * SB * s;
            if constexpr (sizeof(T) == 2) {
              // The v staged A values sit contiguously in smem: one
              // batched widen (exact) replaces v scalar converts.
              half_to_float_n(reinterpret_cast<const half_t*>(
                                  cta.smem() + val_off(s, kk, 0)),
                              av, static_cast<std::size_t>(v));
              half_t hb[kCols];
              std::memcpy(static_cast<void*>(hb), row, sizeof(hb));
              half_to_float_n(hb, bf, kCols);
            } else {
              for (int vv = 0; vv < v; ++vv) av[vv] = staged_val(s, kk, vv);
              std::memcpy(bf, row, sizeof(bf));
            }
            for (int vv = 0; vv < v; ++vv) {
              float* out = acc[s][vv];
              for (int j = 0; j < kCols; ++j) out[j] += av[vv] * bf[j];
            }
          }
        };
        const std::uint32_t sstride = static_cast<std::uint32_t>(slice_bytes);
        switch (slice_bytes) {
          case 2: {
            Lanes<std::array<std::byte, 2>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, active);
            mac(d);
            break;
          }
          case 4: {
            Lanes<std::array<std::byte, 4>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, active);
            mac(d);
            break;
          }
          case 8: {
            Lanes<std::array<std::byte, 8>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, active);
            mac(d);
            break;
          }
          default: {  // 16 B (checked above)
            Lanes<std::array<std::byte, 16>> d;
            w.ldg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, active);
            mac(d);
            break;
          }
        }
      }
    }

    // ---- writeback ----------------------------------------------------
    if constexpr (sizeof(T) == 2) {
      w.count(Op::kCvt, static_cast<std::uint64_t>(v));
    }
    for (int vv = 0; vv < v; ++vv) {
      std::uint64_t gbase[kSubwarps] = {};
      std::uint32_t mask = 0;
      Lanes<std::array<std::byte, 16>> frag{};
      for (int lane = 0; lane < 32; ++lane) {
        const int s = lane / kSubwarpSize;
        const int t = lane % kSubwarpSize;
        if (vr0 + s >= vec_rows) continue;
        for (int e = 0; e < wt; ++e) {
          const T value = T(acc[s][vv][wt * t + e]);
          std::memcpy(frag[static_cast<std::size_t>(lane)].data() +
                          e * sizeof(T),
                      &value, sizeof(T));
        }
        mask |= 1u << lane;
      }
      for (int s = 0; s < kSubwarps; ++s) {
        if (vr0 + s >= vec_rows) continue;
        gbase[s] = c.addr((vr0 + s) * v + vv, n0);
      }
      const std::uint32_t sstride = static_cast<std::uint32_t>(slice_bytes);
      switch (slice_bytes) {
        case 2: {
          Lanes<std::array<std::byte, 2>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 2);
          w.stg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, mask);
          break;
        }
        case 4: {
          Lanes<std::array<std::byte, 4>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 4);
          w.stg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, mask);
          break;
        }
        case 8: {
          Lanes<std::array<std::byte, 8>> d{};
          for (int l = 0; l < 32; ++l)
            std::memcpy(d[static_cast<std::size_t>(l)].data(),
                        frag[static_cast<std::size_t>(l)].data(), 8);
          w.stg_span(gbase, kSubwarps, kSubwarpSize, sstride, d, mask);
          break;
        }
        default:
          w.stg_span(gbase, kSubwarps, kSubwarpSize, sstride, frag, mask);
          break;
      }
    }
  }, sim);

  return {stats, cfg};
}

}  // namespace

KernelRun spmm_fpu_subwarp(gpusim::Device& dev, const CvsDevice& a,
                           const DenseDevice<half_t>& b,
                           DenseDevice<half_t>& c,
                           const SpmmFpuParams& params,
                           const gpusim::SimOptions& sim) {
  return spmm_fpu_impl<half_t>(dev, a, b, c, params, sim);
}

KernelRun spmm_fpu_subwarp_f32(gpusim::Device& dev,
                               const CvsDeviceT<float>& a,
                               const DenseDevice<float>& b,
                               DenseDevice<float>& c,
                               const SpmmFpuParams& params,
                               const gpusim::SimOptions& sim) {
  return spmm_fpu_impl<float>(dev, a, b, c, params, sim);
}

}  // namespace vsparse::kernels
