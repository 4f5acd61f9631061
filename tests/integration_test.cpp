// Cross-module integration tests: kernel pipelines chained through
// device memory (the way the transformer uses them), the split-K dense
// path, and end-to-end agreement between independent implementations.
#include <gtest/gtest.h>

#include <cmath>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/softmax/sparse_softmax.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 512 << 20;
  cfg.num_sms = 8;
  return cfg;
}

TEST(Integration, AllSpmmKernelsAgreeBitExactly) {
  // The tensor-core and FPU implementations of the same contract must
  // agree exactly on fp16-exact inputs (fp32 accumulation everywhere).
  Rng rng(31);
  Cvs a = make_cvs(128, 192, 4, 0.8, rng);
  for (half_t& h : a.values) {
    h = half_t(static_cast<float>(rng.uniform_int(-2, 2)));
  }
  DenseMatrix<half_t> b(192, 128);
  b.fill_random_int(rng);

  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(128, 128);
  auto c1 = to_device(dev, ch);
  auto c2 = to_device(dev, ch);
  spmm_octet(dev, da, db, c1);
  spmm_fpu_subwarp(dev, da, db, c2);
  auto h1 = c1.buf.host();
  auto h2 = c2.buf.host();
  for (std::size_t i = 0; i < h1.size(); ++i) {
    ASSERT_EQ(h1[i].bits(), h2[i].bits()) << i;
  }
}

TEST(Integration, SddmmSoftmaxSpmmPipeline) {
  // The §7.4 attention core chained through device buffers, verified
  // against the composed host references.
  const int seq = 64, d = 64, v = 4;
  Rng rng(32);
  DenseMatrix<half_t> q(seq, d), kmat(seq, d), vmat(seq, d);
  q.fill_random(rng, -0.5f, 0.5f);
  kmat.fill_random(rng, -0.5f, 0.5f);
  vmat.fill_random(rng, -0.5f, 0.5f);
  Cvs mask = make_cvs_mask(seq, seq, v, 0.7, rng);

  gpusim::Device dev(test_config());
  auto dq = to_device(dev, q);
  DenseMatrix<half_t> kt_host(d, seq, Layout::kColMajor);
  for (int i = 0; i < seq; ++i) {
    for (int j = 0; j < d; ++j) kt_host.at(j, i) = kmat.at(i, j);
  }
  auto dkt = to_device(dev, kt_host);
  auto dv = to_device(dev, vmat);
  auto dmask = to_device(dev, mask);
  auto scores = dev.alloc<half_t>(mask.values.size());
  sddmm_octet(dev, dq, dkt, dmask, scores);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  sparse_softmax(dev, dmask, scores, scores, scale);
  CvsDevice probs = dmask;
  probs.values = scores;
  DenseMatrix<half_t> out(seq, d);
  auto dout = to_device(dev, out);
  spmm_octet(dev, probs, dv, dout);

  Cvs ref_scores = sddmm_reference(q, kt_host, mask);
  Cvs ref_probs = sparse_softmax_reference(ref_scores, scale);
  DenseMatrix<half_t> ref = spmm_reference(ref_probs, vmat);
  DenseMatrix<half_t> got = from_device(dout);
  for (int i = 0; i < seq; ++i) {
    for (int j = 0; j < d; ++j) {
      ASSERT_NEAR(static_cast<float>(got.at(i, j)),
                  static_cast<float>(ref.at(i, j)), 5e-3f)
          << i << "," << j;
    }
  }
}

class SplitKTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitKTest, HgemmSplitKMatchesReference) {
  const int split = GetParam();
  Rng rng(33);
  DenseMatrix<half_t> a(64, 256), b(256, 64);
  a.fill_random_int(rng);
  b.fill_random_int(rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(64, 64);
  auto dc = to_device(dev, ch);
  KernelRun run = hgemm_tcu(dev, da, db, dc, {.split_k = split});
  EXPECT_EQ(run.config.grid, split);  // one base tile x split
  DenseMatrix<half_t> got = from_device(dc);
  DenseMatrix<half_t> ref = gemm_reference(a, b);
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      ASSERT_EQ(got.at(i, j).bits(), ref.at(i, j).bits()) << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, SplitKTest, ::testing::Values(1, 2, 4, 8));

TEST(Integration, SplitKAutoFillsSmallGrids) {
  gpusim::Device dev(test_config());
  auto a = dev.alloc<half_t>(64 * 256);
  auto b = dev.alloc<half_t>(256 * 64);
  auto c = dev.alloc<half_t>(64 * 64);
  DenseDevice<half_t> da{a, 64, 256, 256, Layout::kRowMajor};
  DenseDevice<half_t> db{b, 256, 64, 64, Layout::kRowMajor};
  DenseDevice<half_t> dc{c, 64, 64, 64, Layout::kRowMajor};
  KernelRun run = hgemm_tcu(dev, da, db, dc);  // auto split
  EXPECT_GT(run.config.grid, 1);  // heuristic raised the grid
  // Workspace accounting balanced: nothing leaked.
  EXPECT_EQ(dev.live_bytes(),
            (64u * 256 + 256u * 64 + 64u * 64) * sizeof(half_t));
}

TEST(Integration, DeterministicStatsAcrossRuns) {
  // The whole simulator is deterministic: identical launches produce
  // identical counters (cache state is reset per device).
  Rng rng(34);
  Cvs a = make_cvs(128, 128, 4, 0.8, rng);
  DenseMatrix<half_t> b(128, 64);
  b.fill_random(rng);
  auto run_once = [&]() {
    gpusim::Device dev(test_config());
    auto da = to_device(dev, a);
    auto db = to_device(dev, b);
    DenseMatrix<half_t> ch(128, 64);
    auto dc = to_device(dev, ch);
    return spmm_octet(dev, da, db, dc);
  };
  KernelRun r1 = run_once();
  KernelRun r2 = run_once();
  EXPECT_EQ(r1.stats.l1_sector_misses, r2.stats.l1_sector_misses);
  EXPECT_EQ(r1.stats.total_instructions(), r2.stats.total_instructions());
  EXPECT_EQ(r1.stats.global_load_sectors, r2.stats.global_load_sectors);
}

}  // namespace
}  // namespace vsparse::kernels
