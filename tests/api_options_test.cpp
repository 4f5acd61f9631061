// Options-struct dispatch API: the descriptor entry points produce the
// same results and counters as calling the concrete kernels directly
// (dispatch through the registry adds nothing), and the host round
// trip returns the KernelRun alongside the result.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"
#include "vsparse/kernels/spmm/spmm_octet_abft.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 128 << 20;
  cfg.num_sms = 4;
  return cfg;
}

template <class Range>
std::vector<std::uint16_t> bits_of(const Range& v) {
  std::vector<std::uint16_t> out;
  for (half_t h : v) out.push_back(h.bits());
  return out;
}

struct SpmmFixture {
  Cvs a;
  DenseMatrix<half_t> b{96, 64};

  explicit SpmmFixture(int v = 4) {
    Rng rng(21);
    a = make_cvs(64, 96, v, 0.5, rng);
    b.fill_random_int(rng);
  }
};

struct SpmmDeviceRun {
  gpusim::Device dev{test_config()};
  CvsDevice da;
  DenseDevice<half_t> db;
  DenseDevice<half_t> dc;

  explicit SpmmDeviceRun(const SpmmFixture& f)
      : da(to_device(dev, f.a)), db(to_device(dev, f.b)) {
    DenseMatrix<half_t> ch(f.a.rows, f.b.cols());
    dc = to_device(dev, ch);
  }
};

TEST(ApiOptions, SpmmDispatchMatchesDirectKernelCall) {
  const SpmmFixture f;
  SpmmDeviceRun via_options(f);
  const auto new_run =
      spmm(via_options.dev, via_options.da, via_options.db, via_options.dc,
           {.algorithm = SpmmAlgorithm::kFpuSubwarp});

  SpmmDeviceRun direct(f);
  const auto direct_run =
      spmm_fpu_subwarp(direct.dev, direct.da, direct.db, direct.dc);

  EXPECT_EQ(new_run.config.profile.name, direct_run.config.profile.name);
  EXPECT_TRUE(gpusim::counters_equal(new_run.stats, direct_run.stats));
  EXPECT_EQ(bits_of(via_options.dc.buf.host()),
            bits_of(direct.dc.buf.host()));
}

TEST(ApiOptions, SpmmAbftDispatchMatchesDirectKernelCall) {
  const SpmmFixture f;
  SpmmDeviceRun via_options(f);
  const auto new_run =
      spmm(via_options.dev, via_options.da, via_options.db, via_options.dc,
           {.abft = AbftOptions{}});
  EXPECT_TRUE(new_run.abft.enabled);
  EXPECT_TRUE(new_run.abft.clean);

  SpmmDeviceRun direct(f);
  const auto direct_run = spmm_octet_abft(direct.dev, direct.da, direct.db,
                                          direct.dc, {}, AbftOptions{});
  EXPECT_TRUE(direct_run.abft.enabled);
  EXPECT_TRUE(gpusim::counters_equal(new_run.stats, direct_run.stats));
  EXPECT_EQ(bits_of(via_options.dc.buf.host()),
            bits_of(direct.dc.buf.host()));
}

TEST(ApiOptions, SddmmDispatchMatchesDirectKernelCall) {
  Rng rng(22);
  DenseMatrix<half_t> a(32, 64);
  a.fill_random_int(rng);
  DenseMatrix<half_t> b(64, 64, Layout::kColMajor);
  b.fill_random_int(rng);
  Cvs mask = make_cvs_mask(32, 64, 4, 0.6, rng);

  const auto run_both = [&](bool use_direct) {
    gpusim::Device dev(test_config());
    auto da = to_device(dev, a);
    auto db = to_device(dev, b);
    auto dmask = to_device(dev, mask);
    auto out = dev.alloc<half_t>(mask.col_idx.size() *
                                 static_cast<std::size_t>(mask.v));
    const KernelRun run =
        use_direct
            ? sddmm_octet(dev, da, db, dmask, out)
            : sddmm(dev, da, db, dmask, out,
                    {.algorithm = SddmmAlgorithm::kOctet});
    return std::make_pair(run.stats, bits_of(out.host()));
  };

  const auto dispatched = run_both(false);
  const auto direct = run_both(true);
  EXPECT_TRUE(gpusim::counters_equal(dispatched.first, direct.first));
  EXPECT_EQ(dispatched.second, direct.second);
}

TEST(ApiOptions, SpmmHostRoundTripMatchesDeviceRun) {
  const SpmmFixture f;
  const HostRun<DenseMatrix<half_t>> host =
      spmm_host(f.a, f.b, {.algorithm = SpmmAlgorithm::kOctet});

  SpmmDeviceRun direct(f);
  spmm_octet(direct.dev, direct.da, direct.db, direct.dc);
  const auto direct_bits = bits_of(direct.dc.buf.host());

  ASSERT_EQ(host.result.rows(), f.a.rows);
  ASSERT_EQ(host.result.cols(), f.b.cols());
  std::size_t i = 0;
  for (int r = 0; r < host.result.rows(); ++r) {
    for (int c = 0; c < host.result.cols(); ++c) {
      ASSERT_EQ(host.result.at(r, c).bits(), direct_bits[i++]) << r << "," << c;
    }
  }
  // The point of HostRun: the KernelRun rides along.
  EXPECT_EQ(host.run.config.profile.name, "spmm_octet_v4");
  EXPECT_GT(host.run.stats.total_instructions(), 0u);
  EXPECT_GT(host.run.stats.ctas_launched, 0u);
}

TEST(ApiOptions, DefaultOptionsAutoSelect) {
  const SpmmFixture octets(4);
  SpmmDeviceRun r4(octets);
  const auto run4 = spmm(r4.dev, r4.da, r4.db, r4.dc);  // no options at all
  EXPECT_EQ(run4.config.profile.name, "spmm_octet_v4");

  const SpmmFixture scalars(1);
  SpmmDeviceRun r1(scalars);
  const auto run1 = spmm(r1.dev, r1.da, r1.db, r1.dc);
  EXPECT_NE(run1.config.profile.name.find("fpu"), std::string::npos);
}

TEST(ApiOptions, HostResultMatchesReference) {
  const SpmmFixture f;
  for (half_t& h : const_cast<Cvs&>(f.a).values) {
    h = half_t(static_cast<float>(h) > 0 ? 1.0f : -1.0f);
  }
  const auto host = spmm_host(f.a, f.b);
  const DenseMatrix<half_t> ref = spmm_reference(f.a, f.b);
  for (int r = 0; r < ref.rows(); ++r) {
    for (int c = 0; c < ref.cols(); ++c) {
      ASSERT_EQ(host.result.at(r, c).bits(), ref.at(r, c).bits())
          << r << "," << c;
    }
  }
}

TEST(ApiOptions, SimOptionsThreadThroughTheDescriptor) {
  const SpmmFixture f;
  std::vector<gpusim::KernelStats> per_sm;
  SpmmDeviceRun r(f);
  SpmmOptions options;
  options.sim.threads = 2;
  options.sim.per_sm_stats = &per_sm;
  const auto run = spmm(r.dev, r.da, r.db, r.dc, options);
  ASSERT_EQ(per_sm.size(), 4u);  // one block per SM of the test device
  gpusim::KernelStats merged{};
  for (const auto& s : per_sm) merged += s;
  EXPECT_TRUE(merged.sm_local_equal(run.stats));
}

}  // namespace
}  // namespace vsparse::kernels
