// Tests for the tensor-core model: octet-level mma.m8n8k4 semantics
// (Fig. 2), the SWITCH extension (Fig. 15), step masking, and the
// classic warp-level wmma.m8n32k16.
#include "vsparse/gpusim/tensorcore.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstring>
#include <iterator>

#include "vsparse/common/rng.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/faults.hpp"

namespace vsparse::gpusim {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.dram_capacity = 1 << 20;
  cfg.num_sms = 2;
  return cfg;
}

// Mirrors the documented fragment contract of tensorcore.hpp.
int octet_lane(int octet, int j, bool high) {
  return (high ? 16 : 0) + 4 * octet + j;
}

struct OctetProblem {
  // Per octet: A is 8x4, B is 4x8 (stored as 8 columns), C is 8x8.
  float a[4][8][4];
  float b[4][4][8];
};

OctetProblem random_problem(Rng& rng) {
  OctetProblem p;
  for (int o = 0; o < 4; ++o) {
    for (int i = 0; i < 8; ++i) {
      for (int k = 0; k < 4; ++k) {
        // Small integers: fp16-exact and order-insensitive to accumulate.
        p.a[o][i][k] = static_cast<float>(rng.uniform_int(-4, 4));
        p.b[o][k][i] = static_cast<float>(rng.uniform_int(-4, 4));
      }
    }
  }
  return p;
}

void pack_fragments(const OctetProblem& p, MmaFragAB& a, MmaFragAB& b) {
  for (int o = 0; o < 4; ++o) {
    for (int j = 0; j < 4; ++j) {
      const int lo = octet_lane(o, j, false);
      const int hi = octet_lane(o, j, true);
      for (int k = 0; k < 4; ++k) {
        a[static_cast<std::size_t>(lo)][k] = half_t(p.a[o][j][k]);
        a[static_cast<std::size_t>(hi)][k] = half_t(p.a[o][4 + j][k]);
        b[static_cast<std::size_t>(lo)][k] = half_t(p.b[o][k][j]);
        b[static_cast<std::size_t>(hi)][k] = half_t(p.b[o][k][4 + j]);
      }
    }
  }
}

void reference_product(const OctetProblem& p, float (&c)[4][8][8]) {
  for (int o = 0; o < 4; ++o) {
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        float sum = 0.0f;
        for (int k = 0; k < 4; ++k) sum += p.a[o][i][k] * p.b[o][k][j];
        c[o][i][j] = sum;
      }
    }
  }
}

// Extracts the output row held by the lane that sourced A row i.
float c_at(const MmaFragC& c, int octet, int i, int j) {
  const int lane = octet_lane(octet, i % 4, /*high=*/i >= 4);
  return c[static_cast<std::size_t>(lane)][static_cast<std::size_t>(j)];
}

class MmaTest : public ::testing::Test {
 protected:
  Device dev_{small_config()};
};

TEST_F(MmaTest, MatchesReferenceGemmPerOctet) {
  Rng rng(2021);
  for (int trial = 0; trial < 50; ++trial) {
    const OctetProblem p = random_problem(rng);
    MmaFragAB a, b;
    MmaFragC c{};
    pack_fragments(p, a, b);
    float ref[4][8][8];
    reference_product(p, ref);

    LaunchConfig cfg;
    launch(dev_, cfg, [&](Cta& cta) {
      Warp w = cta.warp(0);
      w.mma_m8n8k4(a, b, c);
    });
    for (int o = 0; o < 4; ++o) {
      for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 8; ++j) {
          EXPECT_EQ(c_at(c, o, i, j), ref[o][i][j])
              << "trial=" << trial << " o=" << o << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST_F(MmaTest, AccumulatesOntoExistingC) {
  Rng rng(7);
  const OctetProblem p = random_problem(rng);
  MmaFragAB a, b;
  pack_fragments(p, a, b);
  MmaFragC c;
  for (auto& row : c) row.fill(100.0f);
  float ref[4][8][8];
  reference_product(p, ref);

  LaunchConfig cfg;
  launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.mma_m8n8k4(a, b, c);
  });
  EXPECT_EQ(c_at(c, 0, 0, 0), 100.0f + ref[0][0][0]);
  EXPECT_EQ(c_at(c, 3, 7, 7), 100.0f + ref[3][7][7]);
}

TEST_F(MmaTest, CountsFourHmmaStepsPerInstruction) {
  MmaFragAB a{}, b{};
  MmaFragC c{};
  LaunchConfig cfg;
  KernelStats s = launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.mma_m8n8k4(a, b, c);
    w.mma_m8n8k4(a, b, c);
  });
  EXPECT_EQ(s.op(Op::kHmma), 8u);
}

TEST_F(MmaTest, StepMaskComputesOnlySelectedQuadrants) {
  Rng rng(5);
  const OctetProblem p = random_problem(rng);
  MmaFragAB a, b;
  MmaFragC c{};
  pack_fragments(p, a, b);
  float ref[4][8][8];
  reference_product(p, ref);

  LaunchConfig cfg;
  KernelStats s = launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.mma_m8n8k4(a, b, c, MmaFlags{.switch_groups = false, .step_mask = 0x3});
  });
  EXPECT_EQ(s.op(Op::kHmma), 2u);  // only STEP 0&1 issued
  for (int o = 0; o < 4; ++o) {
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(c_at(c, o, i, j), ref[o][i][j]);     // left 4 columns done
        EXPECT_EQ(c_at(c, o, i, 4 + j), 0.0f);         // right 4 untouched
      }
    }
  }
}

// The SWITCH flag exchanges the low/high sources of both operands while
// accumulators stay put: c_low gets [A_hi*B_hi | A_hi*B_lo] and c_high
// gets [A_lo*B_hi | A_lo*B_lo] (see tensorcore.hpp derivation).
TEST_F(MmaTest, SwitchFlagSwapsSourceGroups) {
  Rng rng(11);
  const OctetProblem p = random_problem(rng);
  MmaFragAB a, b;
  MmaFragC c{};
  pack_fragments(p, a, b);
  float ref[4][8][8];
  reference_product(p, ref);

  LaunchConfig cfg;
  launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.mma_m8n8k4(a, b, c, MmaFlags{.switch_groups = true, .step_mask = 0xF});
  });
  for (int o = 0; o < 4; ++o) {
    // Build the expected block-swapped product: rows swapped between
    // low/high, columns swapped between left/right.
    for (int i = 0; i < 8; ++i) {
      const int src_row = (i + 4) % 8;
      for (int j = 0; j < 8; ++j) {
        const int src_col = (j + 4) % 8;
        EXPECT_EQ(c_at(c, o, i, j), ref[o][src_row][src_col])
            << "o=" << o << " i=" << i << " j=" << j;
      }
    }
  }
}

// Property: switch applied twice at the fragment level is the identity —
// mma(a, b) equals mma with both operands pre-swapped and switch set.
TEST_F(MmaTest, SwitchEqualsPreSwappedOperands) {
  Rng rng(13);
  const OctetProblem p = random_problem(rng);
  MmaFragAB a, b;
  pack_fragments(p, a, b);

  MmaFragAB a_swapped = a, b_swapped = b;
  for (int lane = 0; lane < 16; ++lane) {
    std::swap(a_swapped[static_cast<std::size_t>(lane)],
              a_swapped[static_cast<std::size_t>(lane + 16)]);
    std::swap(b_swapped[static_cast<std::size_t>(lane)],
              b_swapped[static_cast<std::size_t>(lane + 16)]);
  }

  MmaFragC c_plain{}, c_double_switch{};
  LaunchConfig cfg;
  launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.mma_m8n8k4(a, b, c_plain);
    w.mma_m8n8k4(a_swapped, b_swapped, c_double_switch,
                 MmaFlags{.switch_groups = true, .step_mask = 0xF});
  });
  for (int lane = 0; lane < 32; ++lane) {
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(c_plain[static_cast<std::size_t>(lane)][static_cast<std::size_t>(j)],
                c_double_switch[static_cast<std::size_t>(lane)]
                               [static_cast<std::size_t>(j)]);
    }
  }
}

TEST_F(MmaTest, WmmaMatchesReference) {
  Rng rng(42);
  half_t a[8][16], b[16][32];
  float c[8][32] = {};
  float ref[8][32] = {};
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 16; ++k) {
      a[i][k] = half_t(static_cast<float>(rng.uniform_int(-3, 3)));
    }
  }
  for (int k = 0; k < 16; ++k) {
    for (int j = 0; j < 32; ++j) {
      b[k][j] = half_t(static_cast<float>(rng.uniform_int(-3, 3)));
    }
  }
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 32; ++j) {
      for (int k = 0; k < 16; ++k) {
        ref[i][j] += static_cast<float>(a[i][k]) * static_cast<float>(b[k][j]);
      }
    }
  }
  float* crow[8];
  for (int i = 0; i < 8; ++i) crow[i] = c[i];
  LaunchConfig cfg;
  KernelStats s = launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.wmma_m8n32k16(a, b, crow, 8, 16);
  });
  EXPECT_EQ(s.op(Op::kHmma), 16u);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 32; ++j) EXPECT_EQ(c[i][j], ref[i][j]);
  }
}

// ---- the strided WMMA's k-extent ---------------------------------------
//
// Past its k-extent the strided form's A columns and B rows are +0
// padding that the host skips.  Skipping must leave every accumulator
// bit exactly as the full 16-row product leaves it, for any live
// operand and accumulator (signed zeros, subnormals, infinities and NaN
// included), and still charge the padded instruction's 16 HMMA steps.

/// One strided-WMMA problem: live k-rows [0, k), +0 past them.
struct WmmaKProblem {
  half_t a[8][16] = {};
  half_t b[16][32] = {};
  float c[8][32] = {};
};

/// A real in (-2, 2), or with probability `special` one of ±0, a
/// subnormal, ±65504, ±Inf or NaN.
half_t special_or_real(Rng& rng, float special) {
  static constexpr std::uint16_t kSpecial[] = {
      0x0000, 0x8000,          // ±0
      0x0001, 0x83FF,          // subnormals
      0x7BFF, 0xFBFF,          // ±65504
      0x7C00, 0xFC00, 0x7E00,  // ±Inf, NaN
  };
  if (rng.bernoulli(special)) {
    return half_t::from_bits(kSpecial[rng.uniform_u64(std::size(kSpecial))]);
  }
  return half_t(rng.uniform_float(-2.0f, 2.0f));
}

WmmaKProblem random_wmma_k_problem(Rng& rng, int k, float special) {
  WmmaKProblem p;
  for (int i = 0; i < 8; ++i) {
    for (int kk = 0; kk < k; ++kk) p.a[i][kk] = special_or_real(rng, special);
    for (int j = 0; j < 32; ++j) {
      p.c[i][j] = static_cast<float>(special_or_real(rng, special));
    }
  }
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < 32; ++j) p.b[kk][j] = special_or_real(rng, special);
  }
  return p;
}

/// Accumulates p's product into a copy of p.c on `dev` through the
/// strided form with the given rows and k-extent; returns the
/// accumulator and, through `stats`, the launch counters.
std::array<std::uint32_t, 8 * 32> run_strided_wmma(Device& dev,
                                                   const WmmaKProblem& p,
                                                   int rows, int k_extent,
                                                   KernelStats* stats) {
  float c[8][32];
  std::memcpy(c, p.c, sizeof(c));
  float* crow[8];
  for (int i = 0; i < 8; ++i) crow[i] = c[i];
  LaunchConfig cfg;
  *stats = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.wmma_m8n32k16(p.a, p.b, crow, rows, k_extent);
  });
  std::array<std::uint32_t, 8 * 32> bits;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 32; ++j) {
      bits[static_cast<std::size_t>(32 * i + j)] =
          std::bit_cast<std::uint32_t>(c[i][j]);
    }
  }
  return bits;
}

TEST_F(MmaTest, WmmaKExtentSkipsOnlyZeroPadding) {
  Rng rng(1604);
  for (const int k : {1, 2, 4, 8, 15, 16}) {
    for (const int rows : {1, 8}) {
      for (int trial = 0; trial < 20; ++trial) {
        SCOPED_TRACE(::testing::Message() << "k=" << k << " rows=" << rows
                                          << " trial=" << trial);
        const WmmaKProblem p = random_wmma_k_problem(rng, k, 0.08f);
        KernelStats full_stats, ext_stats;
        const auto full = run_strided_wmma(dev_, p, rows, 16, &full_stats);
        const auto ext = run_strided_wmma(dev_, p, rows, k, &ext_stats);
        EXPECT_EQ(ext, full);
        EXPECT_EQ(full_stats.op(Op::kHmma), 16u);
        EXPECT_EQ(ext_stats.op(Op::kHmma), 16u);
      }
    }
  }
}

TEST(WmmaKExtent, FaultPlanMultipliesThePadding) {
  // Two devices with the same seeded MMA-fragment plan: every call takes
  // one rate upset, and the first also flips bit 14 (+0 -> 2.0) of
  // A[0][15] and of B[15][1], both in the padding of a k = 4 problem.
  // The k-extent call must see the corrupted padding exactly as the
  // 16-row call does.  The live values are finite reals, so the
  // padding's product shows in the output.
  constexpr int kBBase = 8 * 16 * 2 * 8;  // bit index where B starts
  const auto make_plan = [&](FaultPlan& plan) {
    plan.set_rates(FaultRates{.mma_frag = 1.0});
    plan.add_target({FaultSite::kMmaFrag, 0, 15 * 2 * 8 + 14, 1, false});
    plan.add_target(
        {FaultSite::kMmaFrag, 0, kBBase + (15 * 32 + 1) * 2 * 8 + 14, 1,
         false});
  };
  Rng rng(77);
  for (const int k : {1, 4, 15}) {
    for (const int rows : {1, 8}) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " rows=" << rows);
      const WmmaKProblem p = random_wmma_k_problem(rng, k, 0.0f);
      FaultPlan plan_full(/*seed=*/9), plan_ext(/*seed=*/9);
      make_plan(plan_full);
      make_plan(plan_ext);
      Device dev_full(small_config()), dev_ext(small_config());
      dev_full.set_fault_plan(&plan_full);
      dev_ext.set_fault_plan(&plan_ext);
      KernelStats full_stats, ext_stats, clean_stats;
      const auto full = run_strided_wmma(dev_full, p, rows, 16, &full_stats);
      const auto ext = run_strided_wmma(dev_ext, p, rows, k, &ext_stats);
      EXPECT_EQ(ext, full);
      EXPECT_EQ(ext_stats.faults_injected, full_stats.faults_injected);
      EXPECT_GE(full_stats.faults_injected, 2u);
      EXPECT_EQ(ext_stats.op(Op::kHmma), 16u);
      // The padding upsets reach the output: the run differs from a
      // fault-free one (A[0][15] * B[15][1] = 4 lands in C[0][1]).
      Device clean(small_config());
      EXPECT_NE(run_strided_wmma(clean, p, rows, k, &clean_stats), full);
    }
  }
}

// fp16 rounding is applied to the *operands*, not the accumulation:
// products of exactly-representable halves accumulate exactly in fp32.
TEST_F(MmaTest, Fp32AccumulationOfFp16Products) {
  MmaFragAB a{}, b{};
  MmaFragC c{};
  // A[0][k] = 2048 for k=0..3, B col 0 = 1.0: row sum = 4*2048 = 8192,
  // which fp16 accumulation would round (ulp at 8192 is 8) but fp32
  // holds exactly; then add 0.5 via a second mma.
  for (int k = 0; k < 4; ++k) {
    a[0][k] = half_t(2048.0f);
    b[0][k] = half_t(1.0f);
  }
  LaunchConfig cfg;
  launch(dev_, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.mma_m8n8k4(a, b, c);
  });
  EXPECT_EQ(c[0][0], 8192.0f);
}

}  // namespace
}  // namespace vsparse::gpusim
