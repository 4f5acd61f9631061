// Correctness + counter tests for all SDDMM kernels: octet tiling with
// the three inverted-pattern strategies (§6.3/6.4), FPU subwarp tiling
// (§6.1), classic WMMA warp tiling (§6.2), and fine-grained CSR.
//
// Operands are uniform in (-1, 1), so nearly every fp32 add rounds and
// the comparisons below see the fold order: one partial per 64-wide
// k-tile, as sddmm_reference folds.  Small-integer operands would make
// every sum exact and hide it.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/sddmm/sddmm_csr_fine.hpp"
#include "vsparse/kernels/sddmm/sddmm_fpu.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/sddmm/sddmm_wmma.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

struct SddmmProblem {
  DenseMatrix<half_t> a;
  DenseMatrix<half_t> b;
  Cvs mask;
  Cvs ref;
};

SddmmProblem make_problem(int m, int k, int n, int v, double sparsity,
                          std::uint64_t seed) {
  Rng rng(seed);
  SddmmProblem p{DenseMatrix<half_t>(m, k),
                 DenseMatrix<half_t>(k, n, Layout::kColMajor),
                 make_cvs_mask(m, n, v, sparsity, rng), {}};
  p.a.fill_random(rng);
  p.b.fill_random(rng);
  p.ref = sddmm_reference(p.a, p.b, p.mask);
  return p;
}

template <class LaunchFn>
void expect_sddmm_matches(const SddmmProblem& p, LaunchFn&& fn) {
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  auto dmask = to_device(dev, p.mask);
  auto out = dev.alloc<half_t>(p.mask.col_idx.size() *
                               static_cast<std::size_t>(p.mask.v));
  fn(dev, da, db, dmask, out);
  auto got = out.host();
  for (std::size_t i = 0; i < p.ref.values.size(); ++i) {
    ASSERT_EQ(got[i].bits(), p.ref.values[i].bits())
        << "value " << i << " got " << static_cast<float>(got[i]) << " want "
        << static_cast<float>(p.ref.values[i]);
  }
}

// Runs `fn` on one 32 x k by k x 96 problem for each k of one, two and
// four k-tiles and a residue tile.
template <class LaunchFn>
void expect_matches_over_k_tiles(int v, double sparsity, std::uint64_t seed,
                                 LaunchFn&& fn) {
  for (const int k : {64, 128, 200, 256}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    expect_sddmm_matches(make_problem(32, k, 96, v, sparsity, seed), fn);
  }
}

class SddmmOctetSweep
    : public ::testing::TestWithParam<
          std::tuple<int, double, InvertedPatternMode>> {};

TEST_P(SddmmOctetSweep, MatchesReference) {
  const auto [v, sparsity, mode] = GetParam();
  expect_matches_over_k_tiles(v, sparsity, 3000 + v, [&](auto& dev, auto& da,
                                                         auto& db, auto& dmask,
                                                         auto& out) {
    sddmm_octet(dev, da, db, dmask, out, SddmmOctetParams{.mode = mode});
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SddmmOctetSweep,
    ::testing::Combine(
        ::testing::Values(2, 4, 8), ::testing::Values(0.0, 0.5, 0.9),
        ::testing::Values(InvertedPatternMode::kExtraRegisters,
                          InvertedPatternMode::kShuffle,
                          InvertedPatternMode::kArchSwitch)));

TEST(SddmmOctet, ResidueKAndN) {
  // K not a multiple of 64 and rows whose nonzero count is not a
  // multiple of 32 exercise both residue paths.
  for (const int k : {72, 200}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    SddmmProblem p = make_problem(16, k, 80, 4, 0.7, 99);
    expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                                auto& out) {
      sddmm_octet(dev, da, db, dmask, out);
    });
  }
}

TEST(SddmmOctet, MaskValuesScaleOutputs) {
  SddmmProblem p = make_problem(8, 32, 64, 4, 0.5, 55);
  for (half_t& h : p.mask.values) h = half_t(2.0f);
  p.ref = sddmm_reference(p.a, p.b, p.mask);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_octet(dev, da, db, dmask, out);
  });
}

TEST(SddmmOctet, ModeCostSignatures) {
  // §7.3.2: mma(arch) removes the operand-switch SHFLs of mma(shfl) and
  // the extra registers of mma(reg).
  SddmmProblem p = make_problem(64, 128, 128, 8, 0.9, 77);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  auto dmask = to_device(dev, p.mask);
  auto out = dev.alloc<half_t>(p.mask.col_idx.size() * 8);
  KernelRun reg = sddmm_octet(dev, da, db, dmask, out,
                              {InvertedPatternMode::kExtraRegisters});
  KernelRun shfl =
      sddmm_octet(dev, da, db, dmask, out, {InvertedPatternMode::kShuffle});
  KernelRun arch =
      sddmm_octet(dev, da, db, dmask, out, {InvertedPatternMode::kArchSwitch});

  EXPECT_GT(shfl.stats.op(gpusim::Op::kShfl), arch.stats.op(gpusim::Op::kShfl));
  EXPECT_GT(reg.config.profile.regs_per_thread,
            arch.config.profile.regs_per_thread);
  EXPECT_EQ(reg.stats.op(gpusim::Op::kHmma), arch.stats.op(gpusim::Op::kHmma));
  // And the model must rank arch fastest (the Fig. 19 result).
  gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  EXPECT_LE(arch.cycles(hw), reg.cycles(hw));
  EXPECT_LE(arch.cycles(hw), shfl.cycles(hw));
}

class SddmmFpuSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SddmmFpuSweep, MatchesReference) {
  const auto [v, sparsity] = GetParam();
  expect_matches_over_k_tiles(v, sparsity, 4000 + v, [&](auto& dev, auto& da,
                                                         auto& db, auto& dmask,
                                                         auto& out) {
    sddmm_fpu_subwarp(dev, da, db, dmask, out);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SddmmFpuSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0.0, 0.5, 0.9)));

TEST(SddmmFpu, SinglePrecisionMatches) {
  Rng rng(5001);
  const int m = 16, k = 128, n = 64, v = 4;
  // Real values with 11-bit significands: every product is exact in
  // fp32, so the result does not depend on whether the compiler fuses a
  // multiply and its add (ISO C++ lets it), while nearly every add
  // still rounds and so shows the fold order.
  DenseMatrix<float> a(m, k), b(k, n, Layout::kColMajor);
  for (auto& x : a.data()) x = half_t(rng.uniform_float(-1.0f, 1.0f));
  for (auto& x : b.data()) x = half_t(rng.uniform_float(-1.0f, 1.0f));
  Cvs mask = make_cvs_mask(m, n, v, 0.6, rng);

  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dmask = to_device_f32(dev, mask);
  auto out = dev.alloc<float>(mask.col_idx.size() * static_cast<std::size_t>(v));
  sddmm_fpu_subwarp_f32(dev, da, db, dmask, out);

  auto got = out.host();
  // Reference in fp32, folded per 64-wide k-tile as sddmm_reference is.
  std::size_t idx = 0;
  for (int vr = 0; vr < mask.vec_rows(); ++vr) {
    for (std::int32_t i = mask.row_ptr[static_cast<std::size_t>(vr)];
         i < mask.row_ptr[static_cast<std::size_t>(vr) + 1]; ++i) {
      const std::int32_t col = mask.col_idx[static_cast<std::size_t>(i)];
      for (int t = 0; t < v; ++t) {
        float want = 0.0f;
        for (int k0 = 0; k0 < k; k0 += kSddmmTileK) {
          float partial = 0.0f;
          for (int kk = k0; kk < k0 + kSddmmTileK; ++kk) {
            partial += a.at(vr * v + t, kk) * b.at(kk, col);
          }
          want += partial;
        }
        ASSERT_EQ(got[idx], want) << "value " << idx;
        ++idx;
      }
    }
  }
}

TEST(SddmmFpu, RegisterPressureGrowsWithV) {
  SddmmProblem p2 = make_problem(32, 64, 64, 2, 0.5, 1);
  SddmmProblem p8 = make_problem(32, 64, 64, 8, 0.5, 2);
  gpusim::Device dev(test_config());
  auto run = [&](SddmmProblem& p) {
    auto da = to_device(dev, p.a);
    auto db = to_device(dev, p.b);
    auto dmask = to_device(dev, p.mask);
    auto out = dev.alloc<half_t>(p.mask.col_idx.size() *
                                 static_cast<std::size_t>(p.mask.v));
    return sddmm_fpu_subwarp(dev, da, db, dmask, out);
  };
  KernelRun r2 = run(p2), r8 = run(p8);
  EXPECT_GT(r8.config.profile.regs_per_thread,
            r2.config.profile.regs_per_thread);
  gpusim::DeviceConfig hw;
  EXPECT_LT(r8.cost(hw).active_warps_per_sm, r2.cost(hw).active_warps_per_sm);
}

class SddmmWmmaSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SddmmWmmaSweep, MatchesReference) {
  const auto [v, sparsity] = GetParam();
  expect_matches_over_k_tiles(v, sparsity, 5000 + v, [&](auto& dev, auto& da,
                                                         auto& db, auto& dmask,
                                                         auto& out) {
    sddmm_wmma_warp(dev, da, db, dmask, out);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SddmmWmmaSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(0.0, 0.5, 0.9)));

TEST(SddmmCsrFine, HalfAndSingleMatchReference) {
  // One chain over all of K: the same fold as one 64-wide k-tile.
  SddmmProblem p = make_problem(16, 64, 64, 1, 0.8, 6000);
  expect_sddmm_matches(p, [&](auto& dev, auto& da, auto& db, auto& dmask,
                              auto& out) {
    sddmm_csr_fine(dev, da, db, dmask, out);
  });
}

TEST(SddmmKernels, RejectOperandsThatMisalign16BLoads) {
  // The tiled bodies load A rows and B columns 16 B at a time, so each
  // operand's leading dimension and first element must be 16 B-aligned:
  // ld a multiple of 8 halves (4 floats).  Each case is a 16 x k by
  // k x 64 product whose operands are windows of larger matrices: A's
  // starts skew_a columns into a 16 x ld_a parent, B's skew_b rows into
  // an ld_b x 64 column-major parent.  `bad` names the operand the
  // kernels must reject, or is empty when they must run.
  struct Case {
    int k, ld_a, ld_b, skew_a, skew_b;
    std::string bad;
  };
  const Case half_cases[] = {{70, 70, 70, 0, 0, "A"}, {72, 72, 72, 0, 0, ""},
                             {64, 68, 64, 0, 0, "A"}, {64, 64, 68, 0, 0, "B"},
                             {64, 72, 72, 4, 0, "A"}, {64, 72, 72, 0, 4, "B"}};
  const Case float_cases[] = {{70, 70, 70, 0, 0, "A"}, {72, 72, 72, 0, 0, ""},
                              {64, 66, 64, 0, 0, "A"}, {64, 64, 66, 0, 0, "B"},
                              {64, 72, 72, 2, 0, "A"}, {64, 72, 72, 0, 2, "B"}};
  gpusim::Device dev(test_config());
  const Cvs mask = make_problem(16, 64, 64, 4, 0.5, 8000).mask;
  auto dmask = to_device(dev, mask);
  auto dmaskf = to_device_f32(dev, mask);
  auto out = dev.alloc<half_t>(mask.values.size());
  auto outf = dev.alloc<float>(mask.values.size());
  const auto operands = [&]<class T>(T, const Case& c) {
    const auto a = to_device(dev, DenseMatrix<T>(16, c.ld_a));
    const auto b =
        to_device(dev, DenseMatrix<T>(c.ld_b, 64, Layout::kColMajor));
    return std::pair{sub_view(dev, a, 0, c.skew_a, 16, c.k),
                     sub_view(dev, b, c.skew_b, 0, c.k, 64)};
  };
  const auto expect = [](const Case& c, const std::function<void()>& run) {
    SCOPED_TRACE(::testing::Message() << "k=" << c.k << " ld_a=" << c.ld_a
                                      << " ld_b=" << c.ld_b << " skew_a="
                                      << c.skew_a << " skew_b=" << c.skew_b);
    if (c.bad.empty()) {
      EXPECT_NO_THROW(run());
      return;
    }
    try {
      run();
      ADD_FAILURE() << "no CheckError for operand " << c.bad;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("operand " + c.bad),
                std::string::npos)
          << e.what();
    }
  };
  for (const Case& c : half_cases) {
    const auto [a, b] = operands(half_t{}, c);
    expect(c, [&] { sddmm_octet(dev, a, b, dmask, out); });
    expect(c, [&] { sddmm_wmma_warp(dev, a, b, dmask, out); });
    expect(c, [&] { sddmm_fpu_subwarp(dev, a, b, dmask, out); });
  }
  for (const Case& c : float_cases) {
    const auto [a, b] = operands(0.0f, c);
    expect(c, [&] { sddmm_fpu_subwarp_f32(dev, a, b, dmaskf, outf); });
  }
}

TEST(SddmmOctet, GridMatchesPaperFormula) {
  // §6.4: [M/V] x [N/32] CTAs.
  SddmmProblem p = make_problem(64, 64, 128, 4, 0.9, 7000);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  auto dmask = to_device(dev, p.mask);
  auto out = dev.alloc<half_t>(p.mask.col_idx.size() * 4);
  KernelRun run = sddmm_octet(dev, da, db, dmask, out);
  EXPECT_EQ(run.config.grid, (64 / 4) * (128 / 32));
}

}  // namespace
}  // namespace vsparse::kernels
