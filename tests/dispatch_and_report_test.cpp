// Tests for the high-level dispatch API and the residual-add kernel.
#include <gtest/gtest.h>

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
  for (auto algo : {SpmmAlgorithm::kOctet, SpmmAlgorithm::kFpuSubwarp}) {
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
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dmask = to_device(dev, mask);
  auto out = dev.alloc<half_t>(mask.values.size());
  const kernels::KernelRun run = kernels::sddmm(dev, da, db, dmask, out);
  EXPECT_GT(run.stats.total_instructions(), 0u);
  const auto got = out.host();
  Cvs ref = sddmm_reference(a, b, mask);
  ASSERT_EQ(got.size(), ref.values.size());
  for (std::size_t i = 0; i < ref.values.size(); ++i) {
    ASSERT_EQ(got[i].bits(), ref.values[i].bits()) << i;
  }
}

TEST(Elementwise, BiasAndResidual) {
  Rng rng(4);
  gpusim::Device dev(test_config());
  DenseMatrix<half_t> x(16, 64), y(16, 64);
  x.fill_random_int(rng);
  y.fill_random_int(rng);
  auto dx = to_device(dev, x);
  auto dy = to_device(dev, y);

  kernels::residual_add(dev, dx, dy);
  DenseMatrix<half_t> got = from_device(dx);
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 64; ++c) {
      const float want =
          static_cast<float>(x.at(r, c)) + static_cast<float>(y.at(r, c));
      ASSERT_EQ(static_cast<float>(got.at(r, c)), want) << r << "," << c;
    }
  }
}

}  // namespace
}  // namespace vsparse
