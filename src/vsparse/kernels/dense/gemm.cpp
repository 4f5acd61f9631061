#include "vsparse/kernels/dense/gemm.hpp"

#include <cstring>

#include "vsparse/common/math.hpp"
#include "vsparse/gpusim/tensorcore.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::AddrLanes;
using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

// CTA tile geometry shared by both dense kernels.  hgemm uses a
// 128-row CTA tile when M allows (as cuBLAS's HMMA kernels do — the
// extra rows double the B-tile reuse, which is where half precision's
// cache advantage in Fig. 5 comes from); sgemm and the fallback use 64.
constexpr int kTileM = 64;
constexpr int kTileN = 64;
constexpr int kTileK = 16;
constexpr int kWarps = 4;  // each warp owns a 16 x 64 stripe

// Shared-memory layout: A tile (tile_m x 16 halves) then B tile
// (16 x 64).  The B base uses the LARGEST tile_m so offsets are stable.
constexpr int kMaxTileM = 128;
constexpr std::uint32_t a_smem_off(int r, int k) {
  return static_cast<std::uint32_t>((r * kTileK + k) * 2);
}
constexpr std::uint32_t b_smem_off(int k, int n) {
  return static_cast<std::uint32_t>((kMaxTileM * kTileK + k * kTileN + n) * 2);
}
constexpr std::size_t kSmemBytes = (kMaxTileM * kTileK + kTileK * kTileN) * 2;

/// Stage 16 A-tile rows starting at tile-local row `tr0` through this
/// warp: one LDG.128 (8 halves/lane) + one STS.128.  Each row is a
/// 2-lane segment sweeping 32 contiguous bytes, in both global and
/// shared memory — a 16-segment affine span.
void stage_a_tile(Warp& w, const DenseDevice<half_t>& a, int m0, int tr0,
                  int k0) {
  std::uint64_t gbase[16];
  std::uint32_t sbase[16];
  Lanes<half8> frag;
  for (int seg = 0; seg < 16; ++seg) {
    gbase[seg] = a.addr(m0 + tr0 + seg, k0);
    sbase[seg] = a_smem_off(tr0 + seg, 0);
  }
  w.count(Op::kImad, 2);  // address arithmetic for the two index exprs
  w.ldg_span(gbase, 16, 2, 16, frag, 0xFFFFFFFFu);
  w.sts_span(sbase, 16, 2, 16, frag, 0xFFFFFFFFu);
}

/// Stage B rows [k0+4w, k0+4w+4) x [n0, n0+64).  Row-major B loads 8
/// consecutive n per lane; col-major B loads 8 consecutive k per lane
/// (both 128 B coalesced, as cuBLAS achieves for either transpose).
void stage_b_tile(Warp& w, const DenseDevice<half_t>& b, int k0, int n0) {
  Lanes<half8> frag;
  w.count(Op::kImad, 2);
  if (b.layout == Layout::kRowMajor) {
    // Four B rows per warp, each an 8-lane segment of 128 contiguous
    // bytes in global and shared memory.
    const int warp_k0 = 4 * w.warp_id();
    std::uint64_t gbase[4];
    std::uint32_t sbase[4];
    for (int seg = 0; seg < 4; ++seg) {
      gbase[seg] = b.addr(k0 + warp_k0 + seg, n0);
      sbase[seg] = b_smem_off(warp_k0 + seg, 0);
    }
    w.ldg_span(gbase, 4, 8, 16, frag, 0xFFFFFFFFu);
    w.sts_span(sbase, 4, 8, 16, frag, 0xFFFFFFFFu);
  } else {
    // Column-major: lane loads 8 consecutive k of one column — 16
    // column segments of 2 lanes, contiguous down the column.
    std::uint64_t gbase[16];
    for (int seg = 0; seg < 16; ++seg) {
      gbase[seg] = b.addr(k0, n0 + 16 * w.warp_id() + seg);
    }
    w.ldg_span(gbase, 16, 2, 16, frag, 0xFFFFFFFFu);
    // Transpose into smem element-wise: 8 STS.32 per half8 would be the
    // real pattern; we charge one STS per k-element group.
    for (int e = 0; e < 8; ++e) {
      Lanes<half_t> one;
      Lanes<std::uint32_t> eoff;
      for (int lane = 0; lane < 32; ++lane) {
        one[static_cast<std::size_t>(lane)] =
            frag[static_cast<std::size_t>(lane)][e];
        const int n = 16 * w.warp_id() + lane / 2;
        const int k = 8 * (lane % 2) + e;
        eoff[static_cast<std::size_t>(lane)] = b_smem_off(k, n);
      }
      w.sts(eoff, one);
    }
  }
}

/// Load an 8x16 A fragment (row-major from smem) for wmma, charging the
/// LDS traffic (8 B per lane): eight 4-lane row segments, stride 8 B.
void load_a_frag(Warp& w, Cta& cta, int row0, int k0_in_tile,
                 half_t (&a)[8][16]) {
  std::uint32_t soff[8];
  for (int seg = 0; seg < 8; ++seg) {
    soff[seg] = a_smem_off(row0 + seg, k0_in_tile);
  }
  Lanes<half4> frag;
  w.lds_span(soff, 8, 4, 8, frag, 0xFFFFFFFFu);
  for (int i = 0; i < 8; ++i) {
    // Each fragment row is 16 contiguous halves in smem.
    std::memcpy(a[i], cta.smem() + soff[i], 16 * sizeof(half_t));
  }
}

/// Load a 16x32 B fragment from smem (two LDS.128 per lane): eight
/// 4-lane row segments per pass, stride 16 B.
void load_b_frag(Warp& w, Cta& cta, int n0_in_tile, half_t (&b)[16][32]) {
  for (int half_k = 0; half_k < 2; ++half_k) {
    std::uint32_t soff[8];
    for (int seg = 0; seg < 8; ++seg) {
      soff[seg] = b_smem_off(8 * half_k + seg, n0_in_tile);
    }
    Lanes<half8> frag;
    w.lds_span(soff, 8, 4, 16, frag, 0xFFFFFFFFu);
  }
  for (int k = 0; k < 16; ++k) {
    std::memcpy(b[k], cta.smem() + b_smem_off(k, n0_in_tile),
                32 * sizeof(half_t));
  }
}

}  // namespace

KernelRun hgemm_tcu(gpusim::Device& dev, const DenseDevice<half_t>& a,
                    const DenseDevice<half_t>& b, DenseDevice<half_t>& c,
                    const HgemmParams& params,
                    const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(a.layout == Layout::kRowMajor);
  VSPARSE_CHECK(c.layout == Layout::kRowMajor);
  VSPARSE_CHECK_MSG(m % kTileM == 0 && n % kTileN == 0 && k % kTileK == 0,
                    "hgemm_tcu requires M,N % 64 == 0 and K % 16 == 0; pad "
                    "the operands (got " << m << "x" << k << "x" << n << ")");

  const int tile_m = (m % kMaxTileM == 0) ? kMaxTileM : kTileM;
  const int rows_per_warp = tile_m / kWarps;  // 16 or 32
  const int grid_base = (m / tile_m) * (n / kTileN);
  // cuBLAS-style split-K: fill the machine when the tile grid is small.
  int split = params.split_k;
  if (split == 0) {
    split = 1;
    while (grid_base * split < 2 * dev.config().num_sms && split < 16 &&
           k % (2 * split * kTileK) == 0) {
      split *= 2;
    }
  }
  VSPARSE_CHECK(split >= 1 && k % (split * kTileK) == 0);
  const int k_per_split = k / split;
  gpusim::Buffer<float> workspace;
  if (split > 1) {
    workspace =
        dev.alloc<float>(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  }

  gpusim::LaunchConfig cfg;
  cfg.grid = grid_base * split;
  cfg.cta_threads = kWarps * 32;
  cfg.smem_bytes = kSmemBytes;
  cfg.profile = {.name = "hgemm_tcu",
                 .regs_per_thread = 120,
                 .static_instrs = 420,
                 .icache_pressure = 1.0,
                 .ilp_factor = 0.6};  // cuBLAS-grade software pipelining

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int ctas_n = n / kTileN;
    const int tile_idx = cta.cta_id() % grid_base;  // tiles fastest
    const int s = cta.cta_id() / grid_base;
    const int m0 = (tile_idx / ctas_n) * tile_m;
    const int n0 = (tile_idx % ctas_n) * kTileN;
    const int k_begin = s * k_per_split;
    const int k_end = k_begin + k_per_split;

    // Per-warp fp32 accumulators for the (tile_m/4) x 64 stripe.
    static thread_local float acc[kWarps][kMaxTileM / kWarps][kTileN];
    for (auto& wa : acc) {
      for (auto& row : wa) {
        for (float& v : row) v = 0.0f;
      }
    }

    for (int k0 = k_begin; k0 < k_end; k0 += kTileK) {
      cta.for_each_warp([&](Warp& w) {
        for (int g = 0; g < rows_per_warp / 16; ++g) {
          stage_a_tile(w, a, m0, rows_per_warp * w.warp_id() + 16 * g, k0);
        }
        stage_b_tile(w, b, k0, n0);
      });
      cta.sync();
      cta.for_each_warp([&](Warp& w) {
        for (int rh = 0; rh < rows_per_warp / 8; ++rh) {  // 8-row halves
          half_t afrag[8][16];
          load_a_frag(w, cta, rows_per_warp * w.warp_id() + 8 * rh, 0, afrag);
          for (int ch = 0; ch < 2; ++ch) {         // two 32-col halves
            half_t bfrag[16][32];
            load_b_frag(w, cta, 32 * ch, bfrag);
            // Accumulate in place through the strided-row overload (no
            // cfrag staging copies; identical fold order).
            float* crow[8];
            for (int i = 0; i < 8; ++i) {
              crow[i] = &acc[w.warp_id()][8 * rh + i][32 * ch];
            }
            w.wmma_m8n32k16(afrag, bfrag, crow, 8, 16);
          }
        }
      });
      cta.sync();
    }

    if (split == 1) {
      // Writeback: convert to half (one CVT issue slot per output
      // element per 32 lanes) and store with STG.128, 4 rows/request.
      cta.for_each_warp([&](Warp& w) {
        w.count(Op::kCvt,
                static_cast<std::uint64_t>(rows_per_warp) * kTileN / 32);
        for (int group = 0; group < rows_per_warp / 4; ++group) {
          // Four 8-lane row segments of 128 contiguous bytes; one
          // batched narrow per row fills the segment's lanes.
          std::uint64_t gbase[4];
          Lanes<half8> frag;
          for (int seg = 0; seg < 4; ++seg) {
            const int lr = 4 * group + seg;  // warp-local row
            gbase[seg] = c.addr(m0 + rows_per_warp * w.warp_id() + lr, n0);
            half_t row[kTileN];
            float_to_half_n(acc[w.warp_id()][lr], row, kTileN);
            std::memcpy(static_cast<void*>(&frag[static_cast<std::size_t>(
                            8 * seg)]),
                        row, kTileN * sizeof(half_t));
          }
          w.stg_span(gbase, 4, 8, 16, frag, 0xFFFFFFFFu);
        }
      });
    } else {
      // Split-K partial: RED.ADD the fp32 tile into the workspace
      // (store-class traffic; execution is serial so plain accumulate
      // is exact).
      cta.for_each_warp([&](Warp& w) {
        auto ws = workspace.host();
        for (int group = 0; group < rows_per_warp / 2; ++group) {
          // Two 16-lane row segments of 256 contiguous bytes each.
          std::uint64_t gbase[2];
          Lanes<std::array<float, 4>> frag;
          for (int seg = 0; seg < 2; ++seg) {
            const int lr = 2 * group + seg;
            const std::size_t idx =
                static_cast<std::size_t>(m0 + rows_per_warp * w.warp_id() +
                                         lr) *
                    n +
                static_cast<std::size_t>(n0);
            gbase[seg] = workspace.addr(idx);
            for (int col = 0; col < kTileN; ++col) {
              ws[idx + static_cast<std::size_t>(col)] +=
                  acc[w.warp_id()][lr][col];
            }
            std::memcpy(
                static_cast<void*>(&frag[static_cast<std::size_t>(16 * seg)]),
                &ws[idx], kTileN * sizeof(float));
          }
          w.stg_span(gbase, 2, 16, 16, frag, 0xFFFFFFFFu);
        }
      });
    }
  }, sim);

  if (split > 1) {
    // Reduction pass: convert the fp32 workspace to half C.
    gpusim::LaunchConfig rcfg;
    const std::int64_t total = static_cast<std::int64_t>(m) * n;
    rcfg.grid = static_cast<int>(ceil_div<std::int64_t>(total, 2048));
    rcfg.cta_threads = 32;
    rcfg.profile = {.name = "hgemm_splitk_reduce",
                    .regs_per_thread = 24,
                    .static_instrs = 96,
                    .icache_pressure = 1.0,
                    .ilp_factor = 0.8};
    gpusim::KernelStats rstats = gpusim::launch(dev, rcfg, [&](Cta& cta) {
      Warp w = cta.warp(0);
      auto ws = workspace.host();
      auto ch = c.buf.host();
      for (int pass = 0; pass < 16; ++pass) {
        const std::int64_t base =
            static_cast<std::int64_t>(cta.cta_id()) * 2048 + pass * 128;
        if (base >= total) break;
        // Lane `l` covers floats [base + 4l, base + 4l + 4): a single
        // affine span (prefix-masked at the ragged tail).
        Lanes<std::array<float, 4>> fin{};
        Lanes<half4> fout{};
        std::uint32_t mask = 0;
        for (int lane = 0; lane < 32; ++lane) {
          if (base + lane * 4 + 4 > total) break;
          mask |= 1u << lane;
        }
        w.ldg_span(workspace.addr(static_cast<std::size_t>(base)), 16, fin,
                   mask);
        w.count(Op::kCvt, 4);
        for (int lane = 0; lane < 32; ++lane) {
          if (!(mask & (1u << lane))) continue;
          const std::int64_t idx = base + lane * 4;
          for (int e = 0; e < 4; ++e) {
            const half_t h = half_t(ws[static_cast<std::size_t>(idx) +
                                       static_cast<std::size_t>(e)]);
            ch[static_cast<std::size_t>(idx) + static_cast<std::size_t>(e)] = h;
            fout[static_cast<std::size_t>(lane)][e] = h;
          }
        }
        w.stg_span(c.buf.addr(static_cast<std::size_t>(base)), 8, fout, mask);
      }
    }, sim);
    stats += rstats;
    dev.free(workspace);
  }
  return {stats, cfg};
}

KernelRun sgemm_fpu(gpusim::Device& dev, const DenseDevice<float>& a,
                    const DenseDevice<float>& b, DenseDevice<float>& c,
                    const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(a.layout == Layout::kRowMajor);
  VSPARSE_CHECK(c.layout == Layout::kRowMajor);
  VSPARSE_CHECK_MSG(m % kTileM == 0 && n % kTileN == 0 && k % kTileK == 0,
                    "sgemm_fpu requires M,N % 64 == 0 and K % 16 == 0 (got "
                        << m << "x" << k << "x" << n << ")");

  gpusim::LaunchConfig cfg;
  cfg.grid = (m / kTileM) * (n / kTileN);
  cfg.cta_threads = kWarps * 32;
  cfg.smem_bytes = (kTileM * kTileK + kTileK * kTileN) * 4;
  cfg.profile = {.name = "sgemm_fpu",
                 .regs_per_thread = 128,
                 .static_instrs = 380,
                 .icache_pressure = 1.0,
                 .ilp_factor = 0.6};

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int ctas_n = n / kTileN;
    const int m0 = (cta.cta_id() / ctas_n) * kTileM;
    const int n0 = (cta.cta_id() % ctas_n) * kTileN;
    static thread_local float acc[kWarps][16][kTileN];
    for (auto& wa : acc) {
      for (auto& row : wa) {
        for (float& v : row) v = 0.0f;
      }
    }
    // smem layout: A tile then B tile (fp32).
    const auto a_off = [](int r, int kk) {
      return static_cast<std::uint32_t>((r * kTileK + kk) * 4);
    };
    const auto b_off = [](int kk, int nn) {
      return static_cast<std::uint32_t>(
          (kTileM * kTileK + kk * kTileN + nn) * 4);
    };

    for (int k0 = 0; k0 < k; k0 += kTileK) {
      cta.for_each_warp([&](Warp& w) {
        // A: warp stages its 16 x 16 rows (fp32: 4 floats per lane x 2).
        // Eight 4-lane row segments per pass, 64 contiguous bytes each.
        w.count(Op::kImad, 4);
        for (int pass = 0; pass < 2; ++pass) {
          std::uint64_t gbase[8];
          std::uint32_t sbase[8];
          Lanes<std::array<float, 4>> frag;
          for (int seg = 0; seg < 8; ++seg) {
            const int r = 16 * w.warp_id() + 8 * pass + seg;
            gbase[seg] = a.addr(m0 + r, k0);
            sbase[seg] = a_off(r, 0);
          }
          w.ldg_span(gbase, 8, 4, 16, frag, 0xFFFFFFFFu);
          w.sts_span(sbase, 8, 4, 16, frag, 0xFFFFFFFFu);
        }
        // B: warp stages rows [4w, 4w+4) — two 16-lane row segments of
        // 256 contiguous bytes per pass.
        for (int pass = 0; pass < 2; ++pass) {
          std::uint64_t gbase[2];
          std::uint32_t sbase[2];
          Lanes<std::array<float, 4>> frag;
          for (int seg = 0; seg < 2; ++seg) {
            const int kk = 4 * w.warp_id() + 2 * pass + seg;
            gbase[seg] = b.addr(k0 + kk, n0);
            sbase[seg] = b_off(kk, 0);
          }
          w.ldg_span(gbase, 2, 16, 16, frag, 0xFFFFFFFFu);
          w.sts_span(sbase, 2, 16, 16, frag, 0xFFFFFFFFu);
        }
      });
      cta.sync();
      cta.for_each_warp([&](Warp& w) {
        // Each lane computes a 2x16 sub-stripe: lane = 16 rows x 64 cols
        // over 32 lanes -> rows r = lane/2 x2? Simpler accounting: the
        // warp executes 16*64*16/32 FFMA issue slots per k-tile, with
        // operands read from smem in 4-float vector LDS.
        w.count(Op::kFfma, 16 * kTileN * kTileK / 32);
        // Charge representative smem reads: each lane re-reads A and B
        // fragments (register-blocked 2x4 micro-tile => per k: 2 A + 4 B
        // loads per lane, vectorized by 4).
        // Each rep reads 32 consecutive words starting at rep*128 (the
        // modulus in the historical form never wrapped), i.e. a pure
        // affine span of stride 4.
        Lanes<std::array<float, 4>> dummy;
        for (int rep = 0; rep < 6; ++rep) {
          w.lds_span(static_cast<std::uint32_t>(rep * 128), 4, dummy,
                     0xFFFFFFFFu);
        }
        // Functional math for the warp's stripe.
        for (int i = 0; i < 16; ++i) {
          const int r = 16 * w.warp_id() + i;
          for (int kk = 0; kk < kTileK; ++kk) {
            const float av = reinterpret_cast<const float*>(
                cta.smem() + a_off(r, kk))[0];
            for (int j = 0; j < kTileN; ++j) {
              const float bv = reinterpret_cast<const float*>(
                  cta.smem() + b_off(kk, j))[0];
              acc[w.warp_id()][i][j] += av * bv;
            }
          }
        }
      });
      cta.sync();
    }
    cta.for_each_warp([&](Warp& w) {
      for (int group = 0; group < 8; ++group) {  // fp32: 4 floats/lane
        // Two 16-lane row segments of 256 contiguous bytes each.
        std::uint64_t gbase[2];
        Lanes<std::array<float, 4>> frag;
        for (int seg = 0; seg < 2; ++seg) {
          const int lr = 2 * group + seg;
          gbase[seg] = c.addr(m0 + 16 * w.warp_id() + lr, n0);
          std::memcpy(
              static_cast<void*>(&frag[static_cast<std::size_t>(16 * seg)]),
              acc[w.warp_id()][lr], kTileN * sizeof(float));
        }
        w.stg_span(gbase, 2, 16, 16, frag, 0xFFFFFFFFu);
      }
    });
  }, sim);
  return {stats, cfg};
}

}  // namespace vsparse::kernels
