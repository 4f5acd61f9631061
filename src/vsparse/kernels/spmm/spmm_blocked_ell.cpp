#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"

#include <cstring>
#include <string>

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/tensorcore.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::AddrLanes;
using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

// Preferred output-stripe width; narrows to 64 when N is not a
// multiple of 128 (cuSPARSE handles any multiple of 64).
constexpr int kPreferredTileN = 128;

}  // namespace

KernelRun spmm_blocked_ell(gpusim::Device& dev, const BlockedEllDevice& a,
                           const DenseDevice<half_t>& b,
                           DenseDevice<half_t>& c,
                           const gpusim::SimOptions& sim) {
  const int m = a.rows, k = a.cols, n = b.cols;
  const int blk = a.block;
  VSPARSE_CHECK(b.rows == k && c.rows == m && c.cols == n);
  VSPARSE_CHECK(b.layout == Layout::kRowMajor &&
                c.layout == Layout::kRowMajor);
  VSPARSE_CHECK(blk == 2 || blk == 4 || blk == 8 || blk == 16);
  VSPARSE_CHECK_MSG(n % 64 == 0,
                    "blocked-ELL SpMM requires N % 64 == 0, got " << n);
  const int tile_n = n % kPreferredTileN == 0 ? kPreferredTileN : 64;

  const int block_rows = m / blk;
  const int n_tiles = n / tile_n;

  gpusim::LaunchConfig cfg;
  cfg.grid = block_rows * n_tiles;
  cfg.cta_threads = 32;
  // smem: the value block + the b x 128 B stripe.
  cfg.smem_bytes = static_cast<std::size_t>(blk) * blk * 2 +
                   static_cast<std::size_t>(blk) * kPreferredTileN * 2;
  cfg.profile = {
      .name = "spmm_blocked_ell_b" + std::to_string(blk),
      .regs_per_thread = 88,
      .static_instrs = 2800 + 7200 / blk,
      .icache_pressure = 2.4,
      .ilp_factor = 1.0,
  };

  auto col_host = a.col_idx.host();

  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    const int brow = cta.cta_id() % block_rows;  // rows fastest
    const int n0 = (cta.cta_id() / block_rows) * tile_n;
    Warp w = cta.warp(0);
    w.count(Op::kImad, 4);

    // Accumulator for the blk x tile_n output block; zero only the
    // rows in use (blk <= 16, rows past blk are never read).
    float acc[32][kPreferredTileN];
    std::memset(acc, 0, static_cast<std::size_t>(blk) * sizeof(acc[0]));

    const auto block_off = [&](int r, int cc) {
      return static_cast<std::uint32_t>((r * blk + cc) * 2);
    };
    const auto btile_off = [&](int r, int nn) {
      return static_cast<std::uint32_t>(blk * blk * 2 + (r * kPreferredTileN + nn) * 2);
    };

    // Gather the block-row's column indices up front (coalesced):
    // consecutive int32 slots, a pure affine span per pass.
    for (int p = 0; p * 32 < a.blocks_per_row; ++p) {
      const int nl = std::min(32, a.blocks_per_row - p * 32);
      const std::uint32_t mask = nl >= 32 ? 0xFFFFFFFFu : (1u << nl) - 1u;
      Lanes<std::int32_t> d{};
      w.ldg_span(a.col_idx.addr(static_cast<std::size_t>(brow) *
                                    static_cast<std::size_t>(a.blocks_per_row) +
                                static_cast<std::size_t>(p * 32)),
                 4, d, mask);
      w.count(Op::kImad, 2);
    }

    for (int slot = 0; slot < a.blocks_per_row; ++slot) {
      // The library kernel recomputes tile/block addresses per slot:
      // a large integer-op share (the Table 1 "Wait" source).
      w.count(Op::kImad, 8);
      w.count(Op::kIadd3, 4);
      const std::int32_t bcol =
          col_host[static_cast<std::size_t>(brow) *
                       static_cast<std::size_t>(a.blocks_per_row) +
                   static_cast<std::size_t>(slot)];
      if (bcol < 0) continue;  // ELL padding slot

      // ---- stage the value block through smem -----------------------
      {
        // 16 B per lane when the block is big enough; blk = 2 blocks
        // are only 8 B total.
        const int chunk_bytes = std::min(16, blk * blk * 2);
        const int chunks = ceil_div(blk * blk * 2, chunk_bytes);
        const std::size_t base =
            (static_cast<std::size_t>(brow) *
                 static_cast<std::size_t>(a.blocks_per_row) +
             static_cast<std::size_t>(slot)) *
            static_cast<std::size_t>(blk) * static_cast<std::size_t>(blk);
        // One chunk per lane, consecutive in both global and shared
        // memory: affine spans of stride chunk_bytes.
        for (int pass = 0; pass < ceil_div(chunks, 32); ++pass) {
          const int nl = std::min(32, chunks - pass * 32);
          const std::uint32_t mask = nl >= 32 ? 0xFFFFFFFFu : (1u << nl) - 1u;
          const std::uint64_t gbase = a.values.addr(
              base + static_cast<std::size_t>(pass) * 32 *
                         static_cast<std::size_t>(chunk_bytes / 2));
          const auto sbase = static_cast<std::uint32_t>(pass * 32 * chunk_bytes);
          const auto cstride = static_cast<std::uint32_t>(chunk_bytes);
          if (chunk_bytes == 16) {
            Lanes<half8> d{};
            w.ldg_span(gbase, cstride, d, mask);
            w.sts_span(sbase, cstride, d, mask);
          } else {
            Lanes<half4> d{};
            w.ldg_span(gbase, cstride, d, mask);
            w.sts_span(sbase, cstride, d, mask);
          }
        }
      }

      // ---- stage the b x 128 B stripe through smem -------------------
      // Each pass: 32 lanes x 8 halves = 2 rows of 128, i.e. two
      // 16-lane segments striding a B row; when tile_n is 64 only the
      // first 8 lanes of each segment are active (prefix mask).
      for (int pass = 0; pass < ceil_div(blk, 2); ++pass) {
        std::uint64_t gbase[2] = {};
        std::uint32_t soff[2] = {};
        std::uint32_t mask = 0;
        const std::uint32_t seg_bits =
            tile_n >= kPreferredTileN ? 0xFFFFu : 0xFFu;
        for (int seg = 0; seg < 2; ++seg) {
          const int r = 2 * pass + seg;
          if (r >= blk) continue;
          gbase[seg] = b.addr(bcol * blk + r, n0);
          soff[seg] = btile_off(r, 0);
          mask |= seg_bits << (16 * seg);
        }
        Lanes<half8> d{};
        w.count(Op::kImad, 2);
        w.ldg_span(gbase, 2, 16, 16, d, mask);
        w.sts_span(soff, 2, 16, 16, d, mask);
      }
      cta.sync();

      // ---- compute with zero-padded wmma ------------------------------
      // ceil(blk/8) row tiles x 4 column tiles of m8n32k16, each padded
      // from k = blk to 16.  Fragments are read back from smem (LDS) —
      // the Short-Scoreboard-heavy pattern of §3.2.  Each wmma charges
      // the 16 HMMA steps of the padded k, but is told its k-extent is
      // blk, so the host multiplies only the block's k-rows.
      const int row_tiles = ceil_div(blk, 8);
      for (int rt = 0; rt < row_tiles; ++rt) {
        half_t afrag[8][16] = {};
        if (blk == 16) {
          // Unclamped gather: one 4-lane segment per block row, lanes
          // striding 8 B through it — a pure affine span.
          std::uint32_t soff[8];
          for (int seg = 0; seg < 8; ++seg) {
            soff[seg] = block_off(rt * 8 + seg, 0);
          }
          Lanes<half4> d;
          w.lds_span(soff, 8, 4, 8, d, 0xFFFFFFFFu);
        } else {
          // Small blocks clamp both coordinates (divergent pattern):
          // keep the per-lane op.
          Lanes<std::uint32_t> off{};
          Lanes<half4> d;
          for (int lane = 0; lane < 32; ++lane) {
            const int r = std::min(rt * 8 + lane / 4, blk - 1);
            const int cc = std::min(4 * (lane % 4), blk - 1);
            off[static_cast<std::size_t>(lane)] = block_off(r, cc);
          }
          w.lds(off, d);
        }
        for (int r = 0; r < 8; ++r) {
          const int gr = rt * 8 + r;
          if (gr >= blk) break;
          // The block row is contiguous in smem.
          std::memcpy(afrag[r], cta.smem() + block_off(gr, 0),
                      static_cast<std::size_t>(blk) * sizeof(half_t));
        }
        for (int ct = 0; ct < tile_n / 32; ++ct) {
          half_t bfrag[16][32] = {};
          for (int pass = 0; pass < 2; ++pass) {
            // Eight 4-lane segments, one per (clamped) B row, each
            // sweeping 32 halves at stride 16 B.
            std::uint32_t off[8];
            for (int seg = 0; seg < 8; ++seg) {
              const int r = std::min(8 * pass + seg, blk - 1);
              off[seg] = btile_off(r, 32 * ct);
            }
            Lanes<half8> d;
            w.lds_span(off, 8, 4, 16, d, 0xFFFFFFFFu);
          }
          for (int r = 0; r < blk && r < 16; ++r) {
            std::memcpy(bfrag[r], cta.smem() + btile_off(r, 32 * ct),
                        32 * sizeof(half_t));
          }
          // Accumulate straight into the acc tile (strided rows); rows
          // past blk would only ever add zero products and be discarded.
          const int crows = std::min(8, blk - rt * 8);
          float* crow[8] = {};
          for (int r = 0; r < crows; ++r) {
            crow[r] = &acc[rt * 8 + r][32 * ct];
          }
          w.wmma_m8n32k16(afrag, bfrag, crow, crows, blk);
        }
      }
      cta.sync();
    }

    // ---- writeback ----------------------------------------------------
    w.count(Op::kCvt, static_cast<std::uint64_t>(blk * tile_n / 32));
    // tile_n/8 lanes cover one output row; rows past blk drop whole
    // segments, so the span mask is a per-segment prefix.
    const int wwidth = tile_n / 8;
    const int wsegs = 32 / wwidth;
    const int rows_per_pass = 256 / tile_n;
    for (int pass = 0; pass < ceil_div(blk * tile_n, 32 * 8); ++pass) {
      std::uint64_t gbase[4] = {};
      Lanes<half8> frag{};
      std::uint32_t mask = 0;
      const std::uint32_t seg_bits =
          wwidth >= 32 ? 0xFFFFFFFFu : (1u << wwidth) - 1u;
      for (int seg = 0; seg < wsegs; ++seg) {
        const int r = pass * rows_per_pass + seg;
        if (r >= blk) continue;
        gbase[seg] = c.addr(brow * blk + r, n0);
        mask |= seg_bits << (seg * wwidth);
        // One batched narrow covers the whole row: the segment's
        // wwidth lanes are contiguous half8 slots spanning
        // acc[r][0..tile_n).  Bit-identical to per-element conversion.
        half_t row[kPreferredTileN];
        float_to_half_n(acc[r], row, static_cast<std::size_t>(tile_n));
        std::memcpy(
            static_cast<void*>(&frag[static_cast<std::size_t>(seg * wwidth)]),
            row, static_cast<std::size_t>(tile_n) * sizeof(half_t));
      }
      w.stg_span(gbase, wsegs, wwidth, 16, frag, mask);
    }
  }, sim);

  return {stats, cfg};
}

}  // namespace vsparse::kernels
