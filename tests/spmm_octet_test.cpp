// Correctness + counter tests for the octet-tiling SpMM (the paper's
// §5.3/5.4 contribution).
#include "vsparse/kernels/spmm/spmm_octet.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "vsparse/bench/summary.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

struct Problem {
  Cvs a;
  DenseMatrix<half_t> b;
};

Problem make_problem(int m, int k, int n, int v, double sparsity,
                     std::uint64_t seed, bool exact_ints = true) {
  Rng rng(seed);
  Problem p{make_cvs(m, k, v, sparsity, rng), DenseMatrix<half_t>(k, n)};
  if (exact_ints) {
    // Integer values make fp32 accumulation order-insensitive, so the
    // kernel must match the reference bit-for-bit.
    for (half_t& h : p.a.values) {
      h = half_t(static_cast<float>(rng.uniform_int(-3, 3)));
    }
    p.b.fill_random_int(rng);
  } else {
    p.b.fill_random(rng);
  }
  return p;
}

void expect_matches_reference(const Cvs& a, const DenseMatrix<half_t>& b,
                              const SpmmOctetParams& params = {}) {
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(a.rows, b.cols());
  auto dc = to_device(dev, ch);
  spmm_octet(dev, da, db, dc, params);
  DenseMatrix<half_t> c = from_device(dc);
  DenseMatrix<half_t> ref = spmm_reference(a, b);
  for (int r = 0; r < a.rows; ++r) {
    for (int j = 0; j < b.cols(); ++j) {
      ASSERT_EQ(c.at(r, j).bits(), ref.at(r, j).bits())
          << "(" << r << "," << j << ") got "
          << static_cast<float>(c.at(r, j)) << " want "
          << static_cast<float>(ref.at(r, j));
    }
  }
}

class SpmmOctetSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SpmmOctetSweep, MatchesReference) {
  const auto [v, sparsity, n] = GetParam();
  Problem p = make_problem(64, 96, n, v, sparsity, 1234 + v);
  expect_matches_reference(p.a, p.b);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpmmOctetSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(0.0, 0.5, 0.9, 0.98),
                       ::testing::Values(64, 128)));

TEST(SpmmOctet, EmptyRowsProduceZeros) {
  Cvs a;
  a.rows = 8;
  a.cols = 32;
  a.v = 4;
  a.row_ptr = {0, 0, 0};  // two empty vector rows
  DenseMatrix<half_t> b(32, 64);
  Rng rng(5);
  b.fill_random(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(8, 64);
  auto dc = to_device(dev, ch);
  spmm_octet(dev, da, db, dc);
  DenseMatrix<half_t> c = from_device(dc);
  for (half_t h : c.data()) {
    EXPECT_EQ(static_cast<float>(h), 0.0f);
  }
}

TEST(SpmmOctet, ResidueHandling) {
  // Row nonzero counts that are not multiples of TileK or 4 exercise
  // the interleaved residue path.
  for (int nnz_target : {1, 3, 5, 31, 33, 37}) {
    Rng rng(100 + nnz_target);
    DenseMatrix<half_t> dense(8, 64);
    // Exactly nnz_target nonzero vectors in each of the 2 vector-rows.
    for (int vr = 0; vr < 2; ++vr) {
      for (int i = 0; i < nnz_target; ++i) {
        const int col = (i * 7 + vr) % 64;
        for (int t = 0; t < 4; ++t) {
          dense.at(vr * 4 + t, col) =
              half_t(static_cast<float>(rng.uniform_int(1, 3)));
        }
      }
    }
    Cvs a = Cvs::from_dense(dense, 4);
    DenseMatrix<half_t> b(64, 64);
    b.fill_random_int(rng);
    expect_matches_reference(a, b);
  }
}

// §8 Case 2 (global attention): two fully dense vector rows among
// empty ones, the extreme row-length imbalance.
TEST(SpmmOctet, GlobalAttentionRowsAmongEmptyRows) {
  constexpr int kM = 64, kK = 128, kN = 64, kV = 8;
  Rng rng(7);
  Cvs a;
  a.rows = kM;
  a.cols = kK;
  a.v = kV;
  a.row_ptr.push_back(0);
  for (int vr = 0; vr < kM / kV; ++vr) {
    if (vr == 2 || vr == 5) {
      for (int c = 0; c < kK; ++c) a.col_idx.push_back(c);
    }
    a.row_ptr.push_back(static_cast<std::int32_t>(a.col_idx.size()));
  }
  a.values.resize(a.col_idx.size() * kV);
  for (half_t& h : a.values) {
    h = half_t(static_cast<float>(rng.uniform_int(-2, 2)));
  }
  a.validate();
  DenseMatrix<half_t> b(kK, kN);
  b.fill_random_int(rng);
  expect_matches_reference(a, b);
}

// §5.4: issuing all TileK/4 loads before the MMAs (batch_loads) beats
// interleaving them at every TileK, in geomean V100 model cycles over
// two seeded 256 x 256 V = 4 operands at N = 128.
TEST(SpmmOctet, BatchedLoadsBeatUnbatchedAtEveryTileK) {
  Rng rng(4);
  const Cvs problems[] = {make_cvs(256, 256, 4, 0.9, rng),
                          make_cvs(256, 256, 4, 0.7, rng)};
  const gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  const auto geomean_cycles = [&](const SpmmOctetParams& params) {
    std::vector<double> cycles;
    for (const Cvs& a : problems) {
      gpusim::Device dev(hw);
      CvsDevice da = to_device(dev, a);
      DenseDevice<half_t> db{dev.alloc<half_t>(std::size_t{256} * 128), 256,
                             128, 128, Layout::kRowMajor};
      DenseDevice<half_t> dc{dev.alloc<half_t>(std::size_t{256} * 128), 256,
                             128, 128, Layout::kRowMajor};
      cycles.push_back(spmm_octet(dev, da, db, dc, params).cycles(hw));
    }
    return bench::geomean(cycles);
  };
  for (int tile_k : {8, 16, 32}) {
    EXPECT_LT(geomean_cycles({.tile_k = tile_k, .batch_loads = true}),
              geomean_cycles({.tile_k = tile_k, .batch_loads = false}))
        << "tile_k=" << tile_k;
  }
}

TEST(SpmmOctet, BatchingOffStillCorrect) {
  Problem p = make_problem(32, 128, 64, 4, 0.6, 77);
  expect_matches_reference(p.a, p.b,
                           SpmmOctetParams{.batch_loads = false});
}

TEST(SpmmOctet, StepSkipAblationStillCorrect) {
  Problem p = make_problem(32, 128, 64, 4, 0.6, 78);
  expect_matches_reference(
      p.a, p.b, SpmmOctetParams{.skip_steps_for_small_v = true});
}

TEST(SpmmOctet, RejectsBadArguments) {
  gpusim::Device dev(test_config());
  Rng rng(9);
  Cvs a = make_cvs(16, 32, 1, 0.5, rng);  // V=1 unsupported here
  DenseMatrix<half_t> b(32, 64);
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(16, 64);
  auto dc = to_device(dev, ch);
  EXPECT_THROW(spmm_octet(dev, da, db, dc), CheckError);

  Cvs a2 = make_cvs(16, 32, 4, 0.5, rng);
  DenseMatrix<half_t> b2(32, 48);  // N % 64 != 0
  auto da2 = to_device(dev, a2);
  auto db2 = to_device(dev, b2);
  DenseMatrix<half_t> ch2(16, 48);
  auto dc2 = to_device(dev, ch2);
  EXPECT_THROW(spmm_octet(dev, da2, db2, dc2), CheckError);
}

TEST(SpmmOctet, GuidelineCounters) {
  // The §7.2.2 signature of the octet kernel: LDG.128-dominated B
  // traffic (sectors/req well above the FPU baseline's ~4), HMMA math,
  // tiny integer-op share, one CTA per VxTileN tile.
  Problem p = make_problem(256, 256, 128, 4, 0.9, 42, /*exact_ints=*/false);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  DenseMatrix<half_t> ch(256, 128);
  auto dc = to_device(dev, ch);
  KernelRun run = spmm_octet(dev, da, db, dc);

  EXPECT_EQ(run.config.grid, (256 / 4) * (128 / 64));
  EXPECT_EQ(run.stats.op(gpusim::Op::kHfma), 0u);  // all math on the TCU
  EXPECT_GT(run.stats.op(gpusim::Op::kHmma), 0u);
  const double int_share =
      static_cast<double>(run.stats.op(gpusim::Op::kImad) +
                          run.stats.op(gpusim::Op::kIadd3)) /
      static_cast<double>(run.stats.total_instructions());
  EXPECT_LT(int_share, 0.15);
  EXPECT_GT(run.stats.sectors_per_request(), 6.0);
  // HMMA count: 8 per 4-vector step regardless of V (no SASS editing).
  std::uint64_t expected_hmma = 0;
  for (int vr = 0; vr < p.a.vec_rows(); ++vr) {
    const int nnz = p.a.row_ptr[static_cast<std::size_t>(vr) + 1] -
                    p.a.row_ptr[static_cast<std::size_t>(vr)];
    expected_hmma += static_cast<std::uint64_t>((nnz + 3) / 4) * 8;
  }
  expected_hmma *= 128 / 64;  // two N tiles
  EXPECT_EQ(run.stats.op(gpusim::Op::kHmma), expected_hmma);
}

TEST(SpmmOctet, StepSkipHalvesHmmaForSmallV) {
  Problem p = make_problem(64, 128, 64, 4, 0.8, 43);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, p.a);
  auto db = to_device(dev, p.b);
  DenseMatrix<half_t> ch(64, 64);
  auto dc = to_device(dev, ch);
  KernelRun base = spmm_octet(dev, da, db, dc);
  KernelRun skip = spmm_octet(dev, da, db, dc,
                              SpmmOctetParams{.skip_steps_for_small_v = true});
  EXPECT_EQ(skip.stats.op(gpusim::Op::kHmma) * 2,
            base.stats.op(gpusim::Op::kHmma));
}

}  // namespace
}  // namespace vsparse::kernels
