// Parameterized correctness sweeps over the kernels' tuning spaces —
// every (parameter, shape, sparsity) combination must stay bit-exact
// against the reference, independent of the performance knobs.
#include <gtest/gtest.h>

#include "fpu_real_operands.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/sddmm/sddmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"
#include "vsparse/transformer/model.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

Cvs int_cvs(int m, int k, int v, double sparsity, std::uint64_t seed) {
  Rng rng(seed);
  Cvs a = make_cvs(m, k, v, sparsity, rng);
  for (half_t& h : a.values) {
    const float x = static_cast<float>(rng.uniform_int(-3, 3));
    h = half_t(x == 0.0f ? 1.0f : x);
  }
  return a;
}

class OctetTileKSweep
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(OctetTileKSweep, BitExactForEveryTileK) {
  const auto [tile_k, v, batch] = GetParam();
  Cvs a = int_cvs(64, 160, v, 0.75, 77 + static_cast<std::uint64_t>(tile_k));
  Rng rng(5);
  DenseMatrix<half_t> b(160, 64);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(64, 64);
  auto dc = to_device(dev, ch);
  spmm_octet(dev, da, db, dc,
             SpmmOctetParams{.tile_k = tile_k, .batch_loads = batch});
  DenseMatrix<half_t> got = from_device(dc);
  DenseMatrix<half_t> ref = spmm_reference(a, b);
  for (int r = 0; r < 64; ++r) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ(got.at(r, j).bits(), ref.at(r, j).bits())
          << "tile_k=" << tile_k << " v=" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OctetTileKSweep,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),
                       ::testing::Values(2, 4, 8),
                       ::testing::Values(true, false)));

class FpuTileSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FpuTileSweep, BitExactForEveryTileShape) {
  const auto [tile_n, tile_k] = GetParam();
  Cvs a = int_cvs(32, 96, 4, 0.6, 99);
  Rng rng(6);
  DenseMatrix<half_t> b(96, 64);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(32, 64);
  auto dc = to_device(dev, ch);
  spmm_fpu_subwarp(dev, da, db, dc,
                   SpmmFpuParams{.tile_n = tile_n, .tile_k = tile_k});
  DenseMatrix<half_t> got = from_device(dc);
  DenseMatrix<half_t> ref = spmm_reference(a, b);
  for (int r = 0; r < 32; ++r) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ(got.at(r, j).bits(), ref.at(r, j).bits())
          << "tile_n=" << tile_n << " tile_k=" << tile_k;
    }
  }
  for (const int v : {1, 2, 4, 8}) {
    expect_fpu_real_operands_bit_exact(
        v, 0.6, SpmmFpuParams{.tile_n = tile_n, .tile_k = tile_k},
        100 + static_cast<std::uint64_t>(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, FpuTileSweep,
                         ::testing::Combine(::testing::Values(16, 32, 64),
                                            ::testing::Values(16, 32, 64)));

class SddmmFpuTileSweep : public ::testing::TestWithParam<int> {};

TEST_P(SddmmFpuTileSweep, BitExactForEveryTileN) {
  // Operands uniform in (-1, 1) over two k-tiles: every output must land
  // in acc[s * tile_n + lj] and fold per 64-wide tile to match.
  const int tile_n = GetParam();
  Rng rng(8);
  DenseMatrix<half_t> a(16, 128), b(128, 96, Layout::kColMajor);
  a.fill_random(rng);
  b.fill_random(rng);
  Cvs mask = make_cvs_mask(16, 96, 4, 0.6, rng);
  Cvs ref = sddmm_reference(a, b, mask);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dmask = to_device(dev, mask);
  auto out = dev.alloc<half_t>(mask.values.size());
  sddmm_fpu_subwarp(dev, da, db, dmask, out,
                    SddmmFpuParams{.tile_n = tile_n});
  auto got = out.host();
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    ASSERT_EQ(got[i].bits(), ref.values[i].bits()) << "tile_n=" << tile_n;
  }
}

INSTANTIATE_TEST_SUITE_P(TileNs, SddmmFpuTileSweep,
                         ::testing::Values(1, 2, 4, 8));

// Transformer modes as a parameterized sweep: every mode must produce a
// complete breakdown and positive throughput at several shapes.
class ModelModeSweep
    : public ::testing::TestWithParam<
          std::tuple<transformer::Mode, int, double>> {};

TEST_P(ModelModeSweep, ForwardCompletesWithSaneBreakdown) {
  const auto [mode, seq, sparsity] = GetParam();
  gpusim::Device dev(test_config());
  transformer::ModelConfig cfg;
  cfg.seq = seq;
  cfg.layers = 1;
  cfg.batch = 1;
  cfg.band = 64;
  cfg.sparsity = sparsity;
  cfg.mode = mode;
  auto r = transformer::run_transformer_forward(dev, cfg, 11);
  EXPECT_GT(r.qk_cycles, 0);
  EXPECT_GT(r.softmax_cycles, 0);
  EXPECT_GT(r.av_cycles, 0);
  EXPECT_GT(r.other_cycles, r.softmax_cycles);  // projections dominate softmax
  EXPECT_GT(r.throughput(1.38e9, 1), 0);
  EXPECT_GT(r.peak_memory_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelModeSweep,
    ::testing::Combine(::testing::Values(transformer::Mode::kDenseFloat,
                                         transformer::Mode::kDenseHalf,
                                         transformer::Mode::kSparseHalf),
                       ::testing::Values(128, 256),
                       ::testing::Values(0.9, 0.98)));

}  // namespace
}  // namespace vsparse::kernels
