// Tests for the high-level dispatch API and the element-wise
// transformer kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/elementwise.hpp"

namespace vsparse {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 128 << 20;
  cfg.num_sms = 4;
  return cfg;
}

TEST(Dispatch, AutoPicksOctetForVectorsFpuForScalars) {
  Rng rng(1);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(32, 64);
  auto dc = to_device(dev, ch);

  Cvs a4 = make_cvs(32, 64, 4, 0.5, rng);
  auto da4 = to_device(dev, a4);
  auto r4 = kernels::spmm(dev, da4, db, dc);
  EXPECT_NE(r4.config.profile.name.find("octet"), std::string::npos);

  Cvs a1 = make_cvs(32, 64, 1, 0.5, rng);
  auto da1 = to_device(dev, a1);
  auto r1 = kernels::spmm(dev, da1, db, dc);
  EXPECT_NE(r1.config.profile.name.find("fpu"), std::string::npos);
}

TEST(Dispatch, ForcedAlgorithmsAllProduceTheSameResult) {
  Rng rng(2);
  Cvs a = make_cvs(32, 64, 4, 0.6, rng);
  for (half_t& h : a.values) {
    h = half_t(static_cast<float>(rng.uniform_int(-2, 2)));
  }
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  DenseMatrix<half_t> ref = spmm_reference(a, b);
  using kernels::SpmmAlgorithm;
  for (auto algo : {SpmmAlgorithm::kOctet, SpmmAlgorithm::kWmmaWarp,
                    SpmmAlgorithm::kFpuSubwarp}) {
    DenseMatrix<half_t> got =
        kernels::spmm_host(a, b, {.algorithm = algo}).result;
    for (int r = 0; r < 32; ++r) {
      for (int c = 0; c < 64; ++c) {
        ASSERT_EQ(got.at(r, c).bits(), ref.at(r, c).bits())
            << "algo " << static_cast<int>(algo);
      }
    }
  }
}

TEST(Dispatch, SddmmHostRoundTrip) {
  Rng rng(3);
  DenseMatrix<half_t> a(16, 32);
  a.fill_random_int(rng);
  DenseMatrix<half_t> b(32, 64, Layout::kColMajor);
  b.fill_random_int(rng);
  Cvs mask = make_cvs_mask(16, 64, 4, 0.7, rng);
  auto host_run = kernels::sddmm_host(a, b, mask);
  const Cvs& got = host_run.result;
  EXPECT_GT(host_run.run.stats.total_instructions(), 0u);
  Cvs ref = sddmm_reference(a, b, mask);
  ASSERT_EQ(got.values.size(), ref.values.size());
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    ASSERT_EQ(got.values[i].bits(), ref.values[i].bits()) << i;
  }
}

TEST(Elementwise, BiasAndResidual) {
  Rng rng(4);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> x(16, 64), y(16, 64);
  x.fill_random_int(rng);
  y.fill_random_int(rng);
  std::vector<half_t> bias_host(64);
  for (auto& h : bias_host) {
    h = half_t(static_cast<float>(rng.uniform_int(-2, 2)));
  }
  auto dx = to_device(dev, x);
  auto dy = to_device(dev, y);
  auto bias = dev.alloc_copy<half_t>(bias_host);

  kernels::bias_add(dev, dx, bias);
  kernels::residual_add(dev, dx, dy);
  DenseMatrix<half_t> got = from_device(dx);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 64; ++c) {
      const float want = static_cast<float>(x.at(r, c)) +
                         static_cast<float>(bias_host[static_cast<std::size_t>(c)]) +
                         static_cast<float>(y.at(r, c));
      ASSERT_EQ(static_cast<float>(got.at(r, c)), want) << r << "," << c;
    }
  }
}

TEST(Elementwise, GeluMatchesScalarFormula) {
  Rng rng(5);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> x(8, 64);
  x.fill_random(rng, -3.0f, 3.0f);
  auto dx = to_device(dev, x);
  kernels::gelu(dev, dx);
  DenseMatrix<half_t> got = from_device(dx);
  for (int r = 0; r < 8; ++r) {
    for (int c = 0; c < 64; ++c) {
      const float v = static_cast<float>(x.at(r, c));
      const float want =
          0.5f * v *
          (1.0f + std::tanh(0.7978845608f * (v + 0.044715f * v * v * v)));
      ASSERT_NEAR(static_cast<float>(got.at(r, c)), want, 2e-3f);
    }
  }
  // Sanity: GELU(0)=0, GELU(+large)~identity, GELU(-large)~0.
  EXPECT_EQ(static_cast<float>(half_t(0.0f)), 0.0f);
}

TEST(Elementwise, LayerNormNormalizesRows) {
  Rng rng(6);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> x(8, 128);
  x.fill_random(rng, -2.0f, 2.0f);
  std::vector<half_t> gamma(128, half_t(1.0f)), beta(128, half_t(0.0f));
  auto dx = to_device(dev, x);
  auto dg = dev.alloc_copy<half_t>(gamma);
  auto db = dev.alloc_copy<half_t>(beta);
  kernels::layer_norm(dev, dx, dg, db);
  DenseMatrix<half_t> got = from_device(dx);
  for (int r = 0; r < 8; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 128; ++c) mean += static_cast<float>(got.at(r, c));
    mean /= 128;
    for (int c = 0; c < 128; ++c) {
      const float d = static_cast<float>(got.at(r, c)) - mean;
      var += d * d;
    }
    var /= 128;
    EXPECT_NEAR(mean, 0.0f, 0.02f) << "row " << r;
    EXPECT_NEAR(var, 1.0f, 0.05f) << "row " << r;
  }
}

TEST(Elementwise, LayerNormAffineApplied) {
  Rng rng(7);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> x(4, 64);
  x.fill_random(rng, -1.0f, 1.0f);
  std::vector<half_t> gamma(64, half_t(2.0f)), beta(64, half_t(0.5f));
  auto dx = to_device(dev, x);
  auto dg = dev.alloc_copy<half_t>(gamma);
  auto db = dev.alloc_copy<half_t>(beta);
  kernels::layer_norm(dev, dx, dg, db);
  DenseMatrix<half_t> got = from_device(dx);
  for (int r = 0; r < 4; ++r) {
    float mean = 0;
    for (int c = 0; c < 64; ++c) mean += static_cast<float>(got.at(r, c));
    mean /= 64;
    EXPECT_NEAR(mean, 0.5f, 0.03f);  // beta shifts the mean
  }
}

}  // namespace
}  // namespace vsparse
