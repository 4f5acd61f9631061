// The launch supervisor's contracts (serve/): the error-taxonomy
// property table, the fault-free fast path (a supervised launch picks
// the kernel direct dispatch picks, for SpMM and SDDMM at every V, and
// runs it bit- AND counter-identically), retry recovery from transient
// ECC detections, degradation-ladder recovery from sticky faults via
// re-encode, admission control (memory quota, pre-admission
// rejections), give-up classification, trace-event emission, and
// report determinism.  Every supervised call goes through
// serve::Supervisor, the only entry into supervision.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/trace/trace.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/serve/policy.hpp"
#include "vsparse/serve/supervisor.hpp"

namespace vsparse {
namespace {

using serve::ServePolicy;
using serve::ServeReport;
using serve::ServeRung;
using serve::Supervisor;

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg = gpusim::DeviceConfig::volta_v100();
  cfg.dram_capacity = 64u << 20;
  return cfg;
}

// A 64x64x64 V=4 problem with integer-valued data: N = 64 keeps the
// octet SpMM at one CTA per vector row (targeted faults fire exactly
// once), and integer values keep every ladder rung — including the
// dense-GEMM decode — bit-identical to the reference.
struct Problem {
  Cvs a_host;
  DenseMatrix<half_t> b_host{64, 64};
  DenseMatrix<half_t> c_host{64, 64};

  CvsDevice a;
  DenseDevice<half_t> b;
  DenseDevice<half_t> c;

  explicit Problem(gpusim::Device& dev, std::uint64_t seed = 7) {
    Rng rng(seed);
    a_host = make_cvs(64, 64, 4, 0.7, rng);
    for (std::size_t j = 0; j < a_host.values.size(); ++j) {
      a_host.values[j] = half_t(static_cast<float>(1 + (j % 3)));
    }
    b_host.fill_random_int(rng);
    a = to_device(dev, a_host);
    b = to_device(dev, b_host);
    c = to_device(dev, c_host);
  }
};

// Fault-free reference: the same seed-7 problem on a fresh device.
std::vector<half_t> run_clean() {
  gpusim::Device dev(test_config());
  Problem p(dev);
  kernels::spmm(dev, p.a, p.b, p.c, {});
  auto span = p.c.buf.host();
  return {span.begin(), span.end()};
}

// ---- taxonomy property table -----------------------------------------

TEST(ServeTaxonomy, CodePropertiesMatchTheDesignTable) {
  using enum ErrorCode;
  struct Row {
    ErrorCode code;
    const char* name;
    bool retryable;
    bool fallback;
  };
  const Row rows[] = {
      {kMalformedFormat, "malformed_format", false, false},
      {kBadDispatch, "bad_dispatch", false, false},
      {kAllocOverflow, "alloc_overflow", false, false},
      {kOutOfMemory, "out_of_memory", false, true},
      {kQuotaExceeded, "quota_exceeded", false, false},
      {kQueueFull, "queue_full", false, false},
      {kDeadlineExceeded, "deadline_exceeded", false, false},
      {kEccUncorrectable, "ecc_uncorrectable", true, true},
      {kLaunchTimeout, "launch_timeout", false, true},
      {kAbftExhausted, "abft_exhausted", true, true},
      {kDeviceLost, "device_lost", false, false},
      {kInternal, "internal", false, false},
  };
  for (const Row& r : rows) {
    EXPECT_STREQ(error_code_name(r.code), r.name);
    EXPECT_EQ(error_code_retryable(r.code), r.retryable) << r.name;
    EXPECT_EQ(error_code_fallback_eligible(r.code), r.fallback) << r.name;
  }
}

// ---- fault-free fast path ---------------------------------------------

// What one launch left behind, for comparing a supervised run with a
// direct dispatch of the same problem.
struct FastPathRun {
  kernels::KernelRun run;
  std::vector<half_t> out;
  ServeReport report;  ///< empty for the direct dispatch
};

// A 64x64x64 SpMM or SDDMM at vector width `v`, on a fresh device,
// through direct kAuto dispatch or through a Supervisor (threads=1).
FastPathRun run_fast_path(bool sddmm, int v, bool supervised) {
  gpusim::Device dev(test_config());
  Rng rng(static_cast<std::uint64_t>(11 + v));
  DenseMatrix<half_t> b_host(64, 64, sddmm ? Layout::kColMajor
                                           : Layout::kRowMajor);
  b_host.fill_random_int(rng);
  auto b = to_device(dev, b_host);
  Supervisor sup(dev, ServePolicy{});
  FastPathRun r;
  if (sddmm) {
    DenseMatrix<half_t> a_host(64, 64);
    a_host.fill_random_int(rng);
    const Cvs mask_host = make_cvs_mask(64, 64, v, 0.7, rng);
    auto a = to_device(dev, a_host);
    auto mask = to_device(dev, mask_host);
    auto out = dev.alloc<half_t>(mask_host.values.size());
    if (supervised) {
      r.report = sup.submit_sddmm(a, b, mask, out);
      r.run = r.report.run;
    } else {
      r.run = kernels::sddmm(dev, a, b, mask, out);
    }
    const auto host = out.host();
    r.out.assign(host.begin(), host.end());
  } else {
    const Cvs a_host = make_cvs(64, 64, v, 0.7, rng);
    DenseMatrix<half_t> c_host(64, 64);
    auto a = to_device(dev, a_host);
    auto c = to_device(dev, c_host);
    if (supervised) {
      r.report = sup.submit_spmm(a, b, c);
      r.run = r.report.run;
    } else {
      r.run = kernels::spmm(dev, a, b, c);
    }
    const auto host = c.buf.host();
    r.out.assign(host.begin(), host.end());
  }
  return r;
}

// The Supervisor resolves kAuto by dispatch's own rule, so on both ops
// and on both branches of the rule (FPU tiling for V = 1, octet tiling
// for V >= 2) a fault-free supervised launch runs the same kernel once,
// bit- and counter-identical to direct dispatch.
TEST(ServeFastPath, FaultFreeSupervisedIsBitAndCounterIdentical) {
  for (const bool sddmm : {false, true}) {
    for (const int v : {1, 2, 4, 8}) {
      SCOPED_TRACE(std::string(sddmm ? "sddmm" : "spmm") + " V=" +
                   std::to_string(v));
      const FastPathRun plain = run_fast_path(sddmm, v, false);
      const FastPathRun served = run_fast_path(sddmm, v, true);

      EXPECT_TRUE(served.report.completed);
      EXPECT_EQ(served.report.retries, 0);
      EXPECT_EQ(served.report.fallbacks, 0);
      EXPECT_EQ(served.report.attempts.size(), 1u);
      EXPECT_EQ(served.report.final_rung,
                v >= 2 ? ServeRung::kOctet : ServeRung::kFpuSubwarp);
      EXPECT_EQ(served.run.config.profile.name, plain.run.config.profile.name);

      // Bit-identical output and counter-identical stats (KernelStats is
      // a plain struct of counters; threads=1 makes every field exact).
      ASSERT_EQ(plain.out.size(), served.out.size());
      EXPECT_EQ(std::memcmp(plain.out.data(), served.out.data(),
                            plain.out.size() * sizeof(half_t)),
                0);
      EXPECT_EQ(std::memcmp(&plain.run.stats, &served.run.stats,
                            sizeof(gpusim::KernelStats)),
                0);
      EXPECT_EQ(plain.run.config.grid, served.run.config.grid);
    }
  }
}

// ---- retry path -------------------------------------------------------

TEST(ServeRetry, TransientEccDetectionRecoversBitExact) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  gpusim::FaultPlan plan(99, /*ecc_enabled=*/true);
  plan.add_target({gpusim::FaultSite::kDramRead, p.a.values.addr(0),
                   /*bit=*/1, /*n_bits=*/2, /*sticky=*/false});
  dev.set_fault_plan(&plan);

  Supervisor sup(dev, ServePolicy{});
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c);
  dev.set_fault_plan(nullptr);

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.retries, 1);
  EXPECT_EQ(report.fallbacks, 0);
  EXPECT_EQ(report.final_rung, ServeRung::kOctet);
  ASSERT_EQ(report.attempts.size(), 2u);
  EXPECT_FALSE(report.attempts[0].ok);
  EXPECT_EQ(report.attempts[0].code, ErrorCode::kEccUncorrectable);
  EXPECT_TRUE(report.attempts[1].ok);
  EXPECT_GT(report.attempts[1].backoff_cycles, 0u);

  const auto got = p.c.buf.host();
  const auto want = run_clean();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0);
}

// ---- ladder path ------------------------------------------------------

TEST(ServeLadder, StickyFaultFallsBackToReencodeBitExact) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  gpusim::FaultPlan plan(99, /*ecc_enabled=*/true);
  plan.add_target({gpusim::FaultSite::kDramRead, p.a.values.addr(0),
                   /*bit=*/1, /*n_bits=*/2, /*sticky=*/true});
  dev.set_fault_plan(&plan);

  Supervisor sup(dev, ServePolicy{});
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c);
  dev.set_fault_plan(nullptr);

  // Every octet-family attempt hits the hard fault on the original
  // encoding; the Blocked-ELL re-encode rung rebuilds A at fresh
  // addresses and completes.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.final_rung, ServeRung::kBlockedEll);
  EXPECT_EQ(report.fallbacks, 2);  // octet -> octet+ABFT -> blocked-ELL
  EXPECT_GT(report.retries, 0);
  for (const auto& at : report.attempts) {
    if (!at.ok) {
      EXPECT_EQ(at.code, ErrorCode::kEccUncorrectable);
    }
  }

  const auto got = p.c.buf.host();
  const auto want = run_clean();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0);
}

TEST(ServeLadder, LadderOffTurnsStickyFaultIntoClassifiedGiveUp) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  gpusim::FaultPlan plan(99, /*ecc_enabled=*/true);
  plan.add_target({gpusim::FaultSite::kDramRead, p.a.values.addr(0),
                   /*bit=*/1, /*n_bits=*/2, /*sticky=*/true});
  dev.set_fault_plan(&plan);

  ServePolicy policy;
  policy.ladder = false;
  Supervisor sup(dev, policy);
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c);
  dev.set_fault_plan(nullptr);

  EXPECT_FALSE(report.completed);
  EXPECT_TRUE(report.has_error);
  EXPECT_EQ(report.final_code, ErrorCode::kEccUncorrectable);
  EXPECT_EQ(report.fallbacks, 0);
  EXPECT_EQ(report.retries, policy.retry.max_retries);
}

TEST(ServeLadder, WatchdogTimeoutWalksEveryRungThenGivesUp) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  Supervisor sup(dev, ServePolicy{});
  kernels::SpmmOptions options;
  options.sim.watchdog_cta_ops = 16;  // every rung times out
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c, options);

  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.rejected);
  EXPECT_TRUE(report.has_error);
  EXPECT_EQ(report.final_code, ErrorCode::kLaunchTimeout);
  EXPECT_EQ(report.final_site, "gpusim.watchdog");
  // kLaunchTimeout is fallback-eligible but not retryable: exactly one
  // attempt per eligible rung (octet, +ABFT, ELL, dense, FPU).
  EXPECT_EQ(report.attempts.size(), 5u);
  EXPECT_EQ(report.fallbacks, 4);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(sup.totals().give_ups, 1u);
}

// ---- admission control ------------------------------------------------

TEST(ServeAdmission, QuotaRejectsOversizedRequestBeforeLaunching) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  ServePolicy policy;
  policy.memory_quota_bytes = 1024;  // smaller than any rung workspace
  Supervisor sup(dev, policy);
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c);
  EXPECT_TRUE(report.rejected);
  EXPECT_EQ(report.final_code, ErrorCode::kQuotaExceeded);
  EXPECT_TRUE(report.attempts.empty());  // nothing launched
}

TEST(ServeAdmission, RecordRejectionKeepsReportNumberingDense) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  Supervisor sup(dev, ServePolicy{});
  sup.submit_spmm(p.a, p.b, p.c);
  sup.record_rejection("spmm", ErrorCode::kQueueFull, "serve.queue");
  sup.submit_spmm(p.a, p.b, p.c);

  ASSERT_EQ(sup.reports().size(), 3u);
  EXPECT_EQ(sup.reports()[0].request_id, 0u);
  EXPECT_EQ(sup.reports()[1].request_id, 1u);
  EXPECT_EQ(sup.reports()[2].request_id, 2u);
  EXPECT_TRUE(sup.reports()[1].rejected);
  EXPECT_EQ(sup.reports()[1].final_code, ErrorCode::kQueueFull);
  EXPECT_EQ(sup.totals().requests, 3u);
  EXPECT_EQ(sup.totals().completed, 2u);
  EXPECT_EQ(sup.totals().rejected, 1u);
}

// ---- backoff arithmetic ----------------------------------------------

TEST(ServeBackoff, ScheduleSaturatesInsteadOfWrapping) {
  serve::RetryPolicy retry;
  retry.backoff_base_cycles = std::uint64_t{1} << 20;
  retry.backoff_multiplier = 8;
  retry.seed = 2021;

  // base * 8^(k-1) crosses kMaxBackoffCycles (2^40) at k = 8; from
  // there every attempt — including soak-scale counts that would wrap
  // a naive pow — plateaus at the cap plus sub-base jitter.
  for (std::int64_t step = 1; step <= 1'000'000'000; step = step * 7 + 1) {
    const int attempt = static_cast<int>(step);
    const std::uint64_t wait =
        serve::backoff_cycles_for(retry, /*request_id=*/42, /*rung=*/0,
                                  attempt);
    EXPECT_LT(wait, serve::kMaxBackoffCycles + retry.backoff_base_cycles)
        << "attempt " << attempt;
    if (attempt >= 8) {
      EXPECT_GE(wait, serve::kMaxBackoffCycles) << "attempt " << attempt;
    }
    // Deterministic: the same (seed, request, rung, attempt) tuple
    // always yields the same schedule entry.
    EXPECT_EQ(wait, serve::backoff_cycles_for(retry, 42, 0, attempt));
  }

  // Unjittered floor below saturation: attempt k waits at least
  // base * 8^(k-1).
  EXPECT_GE(serve::backoff_cycles_for(retry, 42, 0, 1),
            retry.backoff_base_cycles);
  EXPECT_GE(serve::backoff_cycles_for(retry, 42, 0, 3),
            retry.backoff_base_cycles * 64);

  // Degenerate knobs stay safe: no base means no wait, multiplier <= 1
  // never grows, attempt <= 0 never charges.
  serve::RetryPolicy zero = retry;
  zero.backoff_base_cycles = 0;
  EXPECT_EQ(serve::backoff_cycles_for(zero, 42, 0, 5), 0u);
  EXPECT_EQ(serve::backoff_cycles_for(retry, 42, 0, 0), 0u);
  serve::RetryPolicy flat = retry;
  flat.backoff_multiplier = 1;
  EXPECT_LT(serve::backoff_cycles_for(flat, 42, 0, 1'000'000),
            2 * flat.backoff_base_cycles);
}

TEST(ServeBackoff, JitterDecorrelatesRequestsAndRungs) {
  serve::RetryPolicy retry;  // defaults: base 1024, multiplier 2
  const std::uint64_t a = serve::backoff_cycles_for(retry, 1, 0, 1);
  const std::uint64_t b = serve::backoff_cycles_for(retry, 2, 0, 1);
  const std::uint64_t c = serve::backoff_cycles_for(retry, 1, 1, 1);
  EXPECT_NE(a, b);  // different request
  EXPECT_NE(a, c);  // different rung
}

// ---- kernel-health gate routing ---------------------------------------

bool deny_octet_gate(void*, const char* kernel, bool /*abft*/) {
  return std::string_view(kernel) != "spmm_octet";
}

bool deny_all_gate(void*, const char*, bool) { return false; }

TEST(ServeGate, QuarantinedKernelIsRoutedAround) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  ServePolicy policy;
  policy.kernel_gate = &deny_octet_gate;  // octet + octet+ABFT quarantined
  Supervisor sup(dev, policy);
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c);

  // Fault-free, but the gate removed the first two rungs: the request
  // lands directly on blocked-ELL with no retries or fallbacks burned.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.final_rung, ServeRung::kBlockedEll);
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.retries, 0);

  const auto got = p.c.buf.host();
  const auto want = run_clean();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size_bytes()), 0);
}

TEST(ServeGate, AllQuarantinedFailsStaticToUnfilteredLadder) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  ServePolicy policy;
  policy.kernel_gate = &deny_all_gate;
  Supervisor sup(dev, policy);
  const ServeReport& report = sup.submit_spmm(p.a, p.b, p.c);

  // An all-quarantined palette must still serve: the unfiltered ladder
  // applies and the fault-free entry rung completes.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.final_rung, ServeRung::kOctet);
  EXPECT_EQ(report.attempts.size(), 1u);
}

// ---- report numbering at soak scale -----------------------------------

TEST(ServeNumbering, StaysDenseAcrossALargeMixedSoak) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  Supervisor sup(dev, ServePolicy{});
  // A rejection-heavy soak (rejections are cheap — nothing launches)
  // with periodic real launches mixed in: request ids must stay dense
  // with no gaps or reuse across 50k reports.
  constexpr std::size_t kRequests = 50'000;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i % 10'000 == 0) {
      sup.submit_spmm(p.a, p.b, p.c);
    } else {
      sup.record_rejection("spmm", ErrorCode::kQueueFull, "serve.queue");
    }
  }
  ASSERT_EQ(sup.reports().size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_EQ(sup.reports()[i].request_id, i);
  }
  EXPECT_EQ(sup.totals().requests, kRequests);
  EXPECT_EQ(sup.totals().completed, 5u);
  EXPECT_EQ(sup.totals().rejected, kRequests - 5);
}

// ---- observability ----------------------------------------------------

TEST(ServeTrace, RetryFallbackAndGiveUpEventsAreEmitted) {
  auto count = [](const gpusim::Trace& trace, gpusim::TraceEventKind kind) {
    std::size_t n = 0;
    for (const auto& launch : trace.launches()) {
      for (const auto& ev : launch.events) {
        if (ev.kind == kind) ++n;
      }
    }
    return n;
  };

  gpusim::Device dev(test_config());
  Problem p(dev);
  gpusim::FaultPlan plan(99, /*ecc_enabled=*/true);
  plan.add_target({gpusim::FaultSite::kDramRead, p.a.values.addr(0),
                   /*bit=*/1, /*n_bits=*/2, /*sticky=*/true});
  dev.set_fault_plan(&plan);

  gpusim::Trace trace;
  Supervisor sup(dev, ServePolicy{});
  kernels::SpmmOptions options;
  options.sim.trace.sink = &trace;
  sup.submit_spmm(p.a, p.b, p.c, options);
  dev.set_fault_plan(nullptr);

  EXPECT_GT(count(trace, gpusim::TraceEventKind::kServeRetry), 0u);
  EXPECT_GT(count(trace, gpusim::TraceEventKind::kServeFallback), 0u);
  EXPECT_EQ(count(trace, gpusim::TraceEventKind::kServeGiveUp), 0u);
}

TEST(ServeReportJson, DeterministicAcrossRunsAndThreadCounts) {
  auto run_once = [](int threads) {
    gpusim::Device dev(test_config());
    Problem p(dev);
    gpusim::FaultPlan plan(99, /*ecc_enabled=*/true);
    plan.add_target({gpusim::FaultSite::kDramRead, p.a.values.addr(0),
                     /*bit=*/1, /*n_bits=*/2, /*sticky=*/false});
    dev.set_fault_plan(&plan);
    ServePolicy policy;
    policy.retry.seed = 2021;
    Supervisor sup(dev, policy);
    kernels::SpmmOptions options;
    options.sim.threads = threads;
    const std::string json = sup.submit_spmm(p.a, p.b, p.c, options).to_json();
    dev.set_fault_plan(nullptr);
    return json;
  };
  const std::string serial = run_once(1);
  EXPECT_EQ(serial, run_once(1));  // reproducible
  EXPECT_EQ(serial, run_once(2));  // thread-invariant
  EXPECT_EQ(serial, run_once(8));
}

}  // namespace
}  // namespace vsparse
