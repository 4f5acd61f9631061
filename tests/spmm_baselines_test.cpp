// Correctness + counter-signature tests for the SpMM baseline kernels:
// FPU 1-D subwarp tiling (§5.1), Blocked-ELL (cuSPARSE stand-in, §3.2)
// and fine-grained CSR.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fpu_real_operands.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_csr_fine.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

void expect_half_equal(const DenseMatrix<half_t>& got,
                       const DenseMatrix<half_t>& want) {
  for (int r = 0; r < want.rows(); ++r) {
    for (int j = 0; j < want.cols(); ++j) {
      ASSERT_EQ(got.at(r, j).bits(), want.at(r, j).bits())
          << "(" << r << "," << j << ") got "
          << static_cast<float>(got.at(r, j)) << " want "
          << static_cast<float>(want.at(r, j));
    }
  }
}

Cvs int_cvs(int m, int k, int v, double sparsity, std::uint64_t seed) {
  Rng rng(seed);
  Cvs a = make_cvs(m, k, v, sparsity, rng);
  for (half_t& h : a.values) {
    float x = static_cast<float>(rng.uniform_int(-3, 3));
    h = half_t(x == 0.0f ? 1.0f : x);
  }
  return a;
}

class SpmmFpuSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SpmmFpuSweep, MatchesReference) {
  const auto [v, sparsity] = GetParam();
  Cvs a = int_cvs(64, 96, v, sparsity, 500 + v);
  Rng rng(1);
  DenseMatrix<half_t> b(96, 64);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(64, 64);
  auto dc = to_device(dev, ch);
  spmm_fpu_subwarp(dev, da, db, dc);
  expect_half_equal(from_device(dc), spmm_reference(a, b));
  expect_fpu_real_operands_bit_exact(v, sparsity, SpmmFpuParams{},
                                     510 + static_cast<std::uint64_t>(v));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpmmFpuSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0.0, 0.5, 0.9, 0.98)));

TEST(SpmmFpu, RowImbalanceHandled) {
  // Vector rows with wildly different nonzero counts share a warp:
  // the lockstep masking must not corrupt results.
  DenseMatrix<half_t> dense(16, 64);
  Rng rng(3);
  for (int c = 0; c < 64; ++c) {  // row block 0: full
    for (int t = 0; t < 2; ++t) {
      dense.at(t, c) = half_t(static_cast<float>(rng.uniform_int(1, 3)));
    }
  }
  dense.at(4, 7) = half_t(2.0f);  // row block 2: single nonzero
  // row blocks 1,3..7: empty
  Cvs a = Cvs::from_dense(dense, 2);
  DenseMatrix<half_t> b(64, 32);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(16, 32);
  auto dc = to_device(dev, ch);
  spmm_fpu_subwarp(dev, da, db, dc, SpmmFpuParams{.tile_n = 16});
  expect_half_equal(from_device(dc), spmm_reference(a, b));
}

TEST(SpmmFpu, WideTileUsesWideLoads) {
  Cvs a = int_cvs(32, 64, 4, 0.5, 11);
  Rng rng(2);
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(32, 64);
  auto dc = to_device(dev, ch);
  KernelRun narrow = spmm_fpu_subwarp(dev, da, db, dc,
                                      SpmmFpuParams{.tile_n = 16});
  KernelRun wide = spmm_fpu_subwarp(dev, da, db, dc,
                                    SpmmFpuParams{.tile_n = 64});
  // TileN=64 -> 16 B B-slices (LDG.128); TileN=16 -> 4 B (LDG.32): the
  // §5.1 guideline-V-vs-guideline-II trade-off.
  EXPECT_GT(wide.stats.ldg128, narrow.stats.ldg128);
  EXPECT_GT(narrow.stats.ldg32, wide.stats.ldg32);
  EXPECT_GT(narrow.config.grid, wide.config.grid);
  expect_half_equal(from_device(dc), spmm_reference(a, b));
}

// §5.1/§7.2.2: the tuned configuration gives up wide loads for grid
// size, so TileN = 16 beats 32 and 64 in V100 model cycles on a seeded
// 512 x 256 V = 4 operand at N = 256, at TileK 16 and 32.
TEST(SpmmFpu, NarrowTileNBeatsWideTiles) {
  Rng rng(5);
  const Cvs a = make_cvs(512, 256, 4, 0.9, rng);
  const gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  const auto cycles = [&](int tile_n, int tile_k) {
    gpusim::Device dev(hw);
    CvsDevice da = to_device(dev, a);
    DenseDevice<half_t> db{dev.alloc<half_t>(std::size_t{256} * 256), 256, 256,
                           256, Layout::kRowMajor};
    DenseDevice<half_t> dc{dev.alloc<half_t>(std::size_t{512} * 256), 512, 256,
                           256, Layout::kRowMajor};
    return spmm_fpu_subwarp(dev, da, db, dc,
                            SpmmFpuParams{.tile_n = tile_n, .tile_k = tile_k})
        .cycles(hw);
  };
  for (int tile_k : {16, 32}) {
    const double narrow = cycles(16, tile_k);
    EXPECT_LT(narrow, cycles(32, tile_k)) << "tile_k=" << tile_k;
    EXPECT_LT(narrow, cycles(64, tile_k)) << "tile_k=" << tile_k;
  }
}

// A lane loads its tile_n/8-wide B slice as one 2, 4, 8 or 16 B access,
// so only those widths run; any other tile_n is a parameter error
// raised before the launch.
TEST(SpmmFpu, RejectsTileWidthsTheBodyCannotRun) {
  gpusim::Device dev(test_config());
  Rng rng(13);
  const Cvs a = make_cvs(32, 64, 1, 0.5, rng);
  const auto da = to_device(dev, a);
  const std::vector<float> ones(a.values.size(), 1.0f);
  const CvsDeviceT<float> da_f32{dev.alloc_copy<std::int32_t>(a.row_ptr),
                                 dev.alloc_copy<std::int32_t>(a.col_idx),
                                 dev.alloc_copy<float>(ones), 32, 64, 1};
  const auto run = [&](bool f32, int tile_n) {
    const int n = 2 * tile_n;
    const SpmmFpuParams params{.tile_n = tile_n};
    if (f32) {
      auto db = to_device(dev, DenseMatrix<float>(64, n));
      auto dc = to_device(dev, DenseMatrix<float>(32, n));
      spmm_fpu_subwarp_f32(dev, da_f32, db, dc, params);
    } else {
      auto db = to_device(dev, DenseMatrix<half_t>(64, n));
      auto dc = to_device(dev, DenseMatrix<half_t>(32, n));
      spmm_fpu_subwarp(dev, da, db, dc, params);
    }
  };
  const struct {
    bool f32;
    std::vector<int> runs, rejected;
  } cases[] = {{false, {8, 16, 32, 64}, {24, 40, 48, 56}},
               {true, {8, 16, 32}, {24, 64}}};
  for (const auto& c : cases) {
    for (int tile_n : c.runs) {
      EXPECT_NO_THROW(run(c.f32, tile_n)) << "f32=" << c.f32 << " " << tile_n;
    }
    for (int tile_n : c.rejected) {
      const std::string name = "tile_n=" + std::to_string(tile_n);
      try {
        run(c.f32, tile_n);
        ADD_FAILURE() << "f32=" << c.f32 << " " << name << " was accepted";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << "f32=" << c.f32 << ": " << e.what();
      }
    }
  }
}

TEST(SpmmFpu, SinglePrecisionMatchesReference) {
  Rng rng(21);
  Cvs pattern = make_cvs(64, 96, 1, 0.8, rng);
  Csr<float> a;
  a.rows = 64;
  a.cols = 96;
  a.row_ptr = pattern.row_ptr;
  a.col_idx = pattern.col_idx;
  a.values.resize(pattern.col_idx.size());
  for (float& f : a.values) {
    f = static_cast<float>(rng.uniform_int(1, 4));
  }
  DenseMatrix<float> b(96, 64);
  for (int r = 0; r < 96; ++r) {
    for (int c = 0; c < 64; ++c) {
      b.at(r, c) = static_cast<float>(rng.uniform_int(-2, 2));
    }
  }
  gpusim::Device dev(test_config());
  CvsDeviceT<float> da{dev.alloc_copy<std::int32_t>(a.row_ptr),
                       dev.alloc_copy<std::int32_t>(a.col_idx),
                       dev.alloc_copy<float>(a.values), 64, 96, 1};
  auto db = to_device(dev, b);
  DenseMatrix<float> ch(64, 64);
  auto dc = to_device(dev, ch);
  KernelRun run = spmm_fpu_subwarp_f32(dev, da, db, dc);
  DenseMatrix<float> got = from_device(dc);
  DenseMatrix<float> ref = spmm_csr_reference(a, b);
  for (int r = 0; r < 64; ++r) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ(got.at(r, j), ref.at(r, j)) << r << "," << j;
    }
  }
  EXPECT_EQ(run.stats.op(gpusim::Op::kHfma), 0u);  // pure fp32 math
  expect_fpu_real_operands_bit_exact(1, 0.8, SpmmFpuParams{}, 22);
}

TEST(SpmmFpu, SassSizeCalibration) {
  // §7.2.2: 3776 / 6968 SASS lines for V = 4 / 8 (we calibrate the
  // profile formula to land near those numbers).
  Cvs a4 = int_cvs(32, 64, 4, 0.5, 1);
  Cvs a8 = int_cvs(32, 64, 8, 0.5, 2);
  Rng rng(3);
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(32, 64);
  auto dc = to_device(dev, ch);
  auto da4 = to_device(dev, a4);
  auto da8 = to_device(dev, a8);
  KernelRun r4 = spmm_fpu_subwarp(dev, da4, db, dc);
  KernelRun r8 = spmm_fpu_subwarp(dev, da8, db, dc);
  EXPECT_NEAR(r4.config.profile.static_instrs, 3776, 500);
  EXPECT_NEAR(r8.config.profile.static_instrs, 6968, 500);
}

class BlockedEllSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BlockedEllSweep, MatchesReference) {
  const auto [blk, sparsity] = GetParam();
  Rng rng(700 + blk);
  BlockedEll a = make_blocked_ell(64, 64, blk, sparsity, rng);
  for (half_t& h : a.values) {
    h = half_t(static_cast<float>(rng.uniform_int(1, 3)));
  }
  DenseMatrix<half_t> b(64, 128);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(64, 128);
  auto dc = to_device(dev, ch);
  spmm_blocked_ell(dev, da, db, dc);
  expect_half_equal(from_device(dc), gemm_reference(a.to_dense(), b));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockedEllSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(0.5, 0.9)));

TEST(BlockedEll, PaddingSlotsAreSkipped) {
  // blocks_per_row rounds up, creating -1 padding: results must ignore it.
  Rng rng(8);
  BlockedEll a = make_blocked_ell(32, 32, 8, 0.9, rng);
  ASSERT_EQ(a.blocks_per_row, 1);
  a.col_idx[0] = -1;  // force a padding slot
  DenseMatrix<half_t> b(32, 128);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(32, 128);
  auto dc = to_device(dev, ch);
  spmm_blocked_ell(dev, da, db, dc);
  expect_half_equal(from_device(dc), gemm_reference(a.to_dense(), b));
}

TEST(BlockedEll, SmallBlockWastesTcuWork) {
  // Same sparsity and problem: block=4 executes ~4x the HMMA of
  // block=16 because of k-padding to 16 (§3.2's compute inefficiency).
  Rng rng(9);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> b(128, 128);
  b.fill_random_int(rng);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(128, 128);
  auto dc = to_device(dev, ch);
  BlockedEll a4 = make_blocked_ell(128, 128, 4, 0.75, rng);
  BlockedEll a16 = make_blocked_ell(128, 128, 16, 0.75, rng);
  auto da4 = to_device(dev, a4);
  auto da16 = to_device(dev, a16);
  KernelRun r4 = spmm_blocked_ell(dev, da4, db, dc);
  KernelRun r16 = spmm_blocked_ell(dev, da16, db, dc);
  EXPECT_GE(r4.stats.op(gpusim::Op::kHmma),
            3 * r16.stats.op(gpusim::Op::kHmma));
  // And it stages everything through smem (the Short Scoreboard source).
  EXPECT_GT(r4.stats.smem_load_requests, 0u);
}

class CsrFineSweep : public ::testing::TestWithParam<double> {};

TEST_P(CsrFineSweep, HalfMatchesReference) {
  const double sparsity = GetParam();
  Cvs a = int_cvs(32, 64, 1, sparsity, 900);
  Rng rng(10);
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(32, 64);
  auto dc = to_device(dev, ch);
  spmm_csr_fine(dev, da, db, dc);
  expect_half_equal(from_device(dc), spmm_reference(a, b));
}

INSTANTIATE_TEST_SUITE_P(Sparsities, CsrFineSweep,
                         ::testing::Values(0.0, 0.5, 0.9, 0.98));

TEST(CsrFine, SinglePrecisionMatches) {
  Rng rng(11);
  Cvs pattern = make_cvs(32, 64, 1, 0.7, rng);
  gpusim::Device dev(test_config());
  auto da = to_device_f32(dev, pattern);
  DenseMatrix<float> b(64, 32);
  for (auto& x : b.data()) x = rng.uniform_float(-1, 1);
  auto db = to_device(dev, b);
  DenseMatrix<float> ch(32, 32);
  auto dc = to_device(dev, ch);
  spmm_csr_fine_f32(dev, da, db, dc);
  DenseMatrix<float> got = from_device(dc);

  // Reference through the half pattern widened to float.
  Csr<float> a;
  a.rows = 32;
  a.cols = 64;
  a.row_ptr = pattern.row_ptr;
  a.col_idx = pattern.col_idx;
  for (half_t h : pattern.values) a.values.push_back(static_cast<float>(h));
  DenseMatrix<float> ref = spmm_csr_reference(a, b);
  for (int r = 0; r < 32; ++r) {
    for (int j = 0; j < 32; ++j) {
      ASSERT_NEAR(got.at(r, j), ref.at(r, j), 1e-4f);
    }
  }
}

}  // namespace
}  // namespace vsparse::kernels
