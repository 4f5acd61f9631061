// Fault-injection acceptance tests: a targeted DRAM bit flip in the
// octet SpMM must be (a) detected and recovered by the ABFT variant to
// the exact fault-free result with ECC off, (b) corrected
// transparently with ECC on, and (c) raised as a structured EccError
// for a double-bit upset.  Plus the determinism contract: rate-based
// fault counts are identical at any host thread count, and an
// attached-but-empty plan is bit-identical to no plan.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/kernels/spmm/spmm_octet_abft.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

std::vector<std::uint16_t> bits_of(const DenseDevice<half_t>& m) {
  std::vector<std::uint16_t> out;
  for (half_t h : m.buf.host()) out.push_back(h.bits());
  return out;
}

/// 32x96 CVS at V=4 with integer-exact values; values[0] (lane 0 of
/// vector row 0's first nonzero vector) is pinned to 2.0 as the fault
/// target (flipping bit 14 of its fp16 word zeroes it) and B row
/// col_idx[0] gets a pinned 8.0 so the flip is detectable in output
/// column 0 well above the checksum tolerance.
struct SpmmProblem {
  Cvs a;
  DenseMatrix<half_t> b{96, 64};

  SpmmProblem() {
    Rng rng(99);
    a = make_cvs(32, 96, 4, 0.5, rng);
    for (half_t& h : a.values) {
      h = half_t(static_cast<float>(rng.uniform_int(-3, 3)));
    }
    b.fill_random_int(rng);
    a.values[0] = half_t(2.0f);
    b.at(a.col_idx[0], 0) = half_t(8.0f);
  }
};

struct SpmmRun {
  std::vector<std::uint16_t> out_bits;
  KernelRun run;
  gpusim::Device dev{test_config()};
};

SpmmRun run_spmm_abft(const SpmmProblem& p, gpusim::FaultPlan* plan,
                      const gpusim::FaultRates* rates = nullptr,
                      int threads = 1) {
  SpmmRun r;
  auto a = to_device(r.dev, p.a);
  auto b = to_device(r.dev, p.b);
  DenseMatrix<half_t> ch(p.a.rows, p.b.cols());
  auto c = to_device(r.dev, ch);
  if (plan != nullptr) {
    if (rates != nullptr) {
      plan->set_rates(*rates);
    } else {
      plan->add_target({gpusim::FaultSite::kDramRead, a.values.addr(0) + 1, 6,
                        /*n_bits=*/1, /*sticky=*/false});
    }
    r.dev.set_fault_plan(plan);
  }
  r.run = spmm_octet_abft(r.dev, a, b, c, {}, {},
                          gpusim::SimOptions{.threads = threads});
  r.out_bits = bits_of(c);
  return r;
}

TEST(FaultSpmm, AbftRecoversDramFlipToExactResult) {
  SpmmProblem p;
  ASSERT_GT(p.a.row_ptr[1], p.a.row_ptr[0])
      << "test needs a nonzero in vector row 0";
  const SpmmRun clean = run_spmm_abft(p, nullptr);
  EXPECT_TRUE(clean.run.abft.enabled);
  EXPECT_TRUE(clean.run.abft.clean);
  EXPECT_EQ(clean.run.abft.corrupted_tiles, 0);
  EXPECT_EQ(clean.run.abft.recompute_launches, 0);
  EXPECT_EQ(clean.run.stats.faults_injected, 0u);

  gpusim::FaultPlan plan(/*seed=*/11, /*ecc_enabled=*/false);
  const SpmmRun faulty = run_spmm_abft(p, &plan);
  EXPECT_GE(plan.injected(), 1u);
  EXPECT_GE(faulty.run.stats.faults_injected, 1u);
  EXPECT_EQ(faulty.run.stats.faults_masked, 0u);
  EXPECT_TRUE(faulty.run.abft.enabled);
  EXPECT_GE(faulty.run.abft.corrupted_tiles, 1);
  EXPECT_GE(faulty.run.abft.recompute_launches, 1);
  EXPECT_TRUE(faulty.run.abft.clean);
  ASSERT_EQ(faulty.out_bits.size(), clean.out_bits.size());
  for (std::size_t i = 0; i < clean.out_bits.size(); ++i) {
    ASSERT_EQ(faulty.out_bits[i], clean.out_bits[i])
        << "recovered output word " << i << " differs from fault-free run";
  }
}

TEST(FaultSpmm, EccCorrectsSingleBitTransparently) {
  SpmmProblem p;
  const SpmmRun clean = run_spmm_abft(p, nullptr);

  gpusim::FaultPlan plan(/*seed=*/11, /*ecc_enabled=*/true);
  const SpmmRun ecc = run_spmm_abft(p, &plan);
  EXPECT_GE(ecc.run.stats.faults_injected, 1u);
  EXPECT_GE(ecc.run.stats.faults_masked, 1u);
  EXPECT_EQ(ecc.run.stats.faults_detected, 0u);
  EXPECT_GE(plan.masked(), 1u);
  // ECC corrected in flight: ABFT saw a clean launch.
  EXPECT_EQ(ecc.run.abft.corrupted_tiles, 0);
  EXPECT_EQ(ecc.run.abft.recompute_launches, 0);
  ASSERT_EQ(ecc.out_bits, clean.out_bits);
}

TEST(FaultSpmm, EccDoubleBitRaisesStructuredError) {
  SpmmProblem p;
  SpmmRun r;
  auto a = to_device(r.dev, p.a);
  auto b = to_device(r.dev, p.b);
  DenseMatrix<half_t> ch(p.a.rows, p.b.cols());
  auto c = to_device(r.dev, ch);
  gpusim::FaultPlan plan(/*seed=*/11, /*ecc_enabled=*/true);
  plan.add_target({gpusim::FaultSite::kDramRead, a.values.addr(0) + 1, 6,
                   /*n_bits=*/2, /*sticky=*/false});
  r.dev.set_fault_plan(&plan);
  try {
    spmm_octet_abft(r.dev, a, b, c);
    FAIL() << "double-bit upset with ECC on must raise EccError";
  } catch (const gpusim::EccError& e) {
    EXPECT_EQ(e.site(), gpusim::FaultSite::kDramRead);
    EXPECT_GE(e.sm_id(), 0);
  }
  EXPECT_GE(plan.detected(), 1u);
  // The device stays usable after the unwind: detach and run clean.
  r.dev.set_fault_plan(nullptr);
  KernelRun rerun = spmm_octet_abft(r.dev, a, b, c);
  EXPECT_TRUE(rerun.abft.clean);
  EXPECT_EQ(rerun.stats.faults_injected, 0u);
}

TEST(FaultSpmm, RateFaultCountsAreThreadCountInvariant) {
  SpmmProblem p;
  const SpmmRun clean = run_spmm_abft(p, nullptr);

  // Same seed, fresh plan per run: the per-SM access sequences are
  // bit-reproducible at any thread count, so the deterministic rate
  // decisions land on identical accesses.  ECC corrects every
  // single-bit upset, so the output stays exact too.
  const gpusim::FaultRates rates{.dram_read = 0.02};
  gpusim::FaultPlan serial_plan(/*seed=*/42, /*ecc_enabled=*/true);
  const SpmmRun serial = run_spmm_abft(p, &serial_plan, &rates, /*threads=*/1);
  ASSERT_GT(serial.run.stats.faults_injected, 0u)
      << "rate too low to exercise the injector";
  EXPECT_EQ(serial.run.stats.faults_injected, serial.run.stats.faults_masked);

  gpusim::FaultPlan threaded_plan(/*seed=*/42, /*ecc_enabled=*/true);
  const SpmmRun threaded =
      run_spmm_abft(p, &threaded_plan, &rates, /*threads=*/8);
  EXPECT_EQ(serial.run.stats.faults_injected,
            threaded.run.stats.faults_injected);
  EXPECT_EQ(serial.run.stats.faults_masked, threaded.run.stats.faults_masked);
  ASSERT_EQ(serial.out_bits, threaded.out_bits);
  ASSERT_EQ(serial.out_bits, clean.out_bits);
}

TEST(FaultSpmm, EmptyPlanIsBitIdenticalToNoPlan) {
  SpmmProblem p;
  const SpmmRun none = run_spmm_abft(p, nullptr);
  gpusim::FaultPlan empty(/*seed=*/1, /*ecc_enabled=*/true);
  const gpusim::FaultRates zero{};
  const SpmmRun attached = run_spmm_abft(p, &empty, &zero);
  EXPECT_EQ(attached.run.stats.faults_injected, 0u);
  EXPECT_EQ(attached.run.stats.faults_masked, 0u);
  EXPECT_EQ(attached.run.stats.faults_detected, 0u);
  ASSERT_EQ(attached.out_bits, none.out_bits);
  EXPECT_TRUE(none.run.stats.sm_local_equal(attached.run.stats));
}

}  // namespace
}  // namespace vsparse::kernels
