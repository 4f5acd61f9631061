// The launch supervisor's contracts (serve/): the error-taxonomy
// property table, the null-policy fast path (supervised fault-free
// dispatch bit- AND counter-identical to unsupervised), retry recovery
// from transient ECC detections, degradation-ladder recovery from
// sticky faults via re-encode, admission control (memory quota,
// pre-admission rejections), give-up classification, trace-event
// emission, report determinism, and the supervised transformer forward
// pass surviving an injected attention fault storm.
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
#include "vsparse/transformer/model.hpp"

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
  const Error e(ErrorCode::kEccUncorrectable, "gpusim.ecc", "boom");
  EXPECT_EQ(e.to_json(),
            "{\"code\":\"ecc_uncorrectable\",\"site\":\"gpusim.ecc\","
            "\"retryable\":true}");
}

// ---- null-policy fast path -------------------------------------------

TEST(ServeFastPath, FaultFreeSupervisedIsBitAndCounterIdentical) {
  gpusim::Device plain_dev(test_config());
  Problem plain(plain_dev);
  kernels::KernelRun plain_run =
      kernels::spmm(plain_dev, plain.a, plain.b, plain.c, {});

  gpusim::Device served_dev(test_config());
  Problem served(served_dev);
  ServePolicy policy;  // defaults; no faults anywhere
  ServeReport report;
  kernels::KernelRun served_run =
      kernels::spmm(served_dev, served.a, served.b, served.c,
                    {.serve = &policy, .serve_report = &report});

  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.fallbacks, 0);
  EXPECT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.final_rung, ServeRung::kOctet);

  // Bit-identical output and counter-identical stats (KernelStats is a
  // plain struct of counters; threads=1 makes every field exact).
  const auto pc = plain.c.buf.host();
  const auto sc = served.c.buf.host();
  ASSERT_EQ(pc.size(), sc.size());
  EXPECT_EQ(std::memcmp(pc.data(), sc.data(), pc.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(&plain_run.stats, &served_run.stats,
                        sizeof(gpusim::KernelStats)),
            0);
  EXPECT_EQ(plain_run.config.grid, served_run.config.grid);
}

// ---- retry path -------------------------------------------------------

TEST(ServeRetry, TransientEccDetectionRecoversBitExact) {
  gpusim::Device dev(test_config());
  Problem p(dev);
  gpusim::FaultPlan plan(99, /*ecc_enabled=*/true);
  plan.add_target({gpusim::FaultSite::kDramRead, p.a.values.addr(0),
                   /*bit=*/1, /*n_bits=*/2, /*sticky=*/false});
  dev.set_fault_plan(&plan);

  ServePolicy policy;
  ServeReport report;
  kernels::spmm(dev, p.a, p.b, p.c,
                {.serve = &policy, .serve_report = &report});
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

  ServePolicy policy;
  ServeReport report;
  kernels::spmm(dev, p.a, p.b, p.c,
                {.serve = &policy, .serve_report = &report});
  dev.set_fault_plan(nullptr);

  // Every octet-family attempt hits the hard fault on the original
  // encoding; the Blocked-ELL re-encode rung rebuilds A at fresh
  // addresses and completes.
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.final_rung, ServeRung::kBlockedEll);
  EXPECT_EQ(report.fallbacks, 2);  // octet -> octet+ABFT -> blocked-ELL
  EXPECT_GT(report.retries, 0);
  for (const auto& at : report.attempts) {
    if (!at.ok) EXPECT_EQ(at.code, ErrorCode::kEccUncorrectable);
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
  ServeReport report;
  bool threw = false;
  try {
    kernels::spmm(dev, p.a, p.b, p.c,
                  {.serve = &policy, .serve_report = &report});
  } catch (const Error& e) {
    threw = true;
    EXPECT_EQ(e.code(), ErrorCode::kEccUncorrectable);
  }
  dev.set_fault_plan(nullptr);

  EXPECT_TRUE(threw);  // direct dispatch rethrows the original error
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
  ServeReport report;
  EXPECT_THROW(kernels::spmm(dev, p.a, p.b, p.c,
                             {.serve = &policy, .serve_report = &report}),
               Error);
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
  ServePolicy policy;
  kernels::SpmmOptions options{.serve = &policy};
  options.sim.trace.sink = &trace;
  kernels::spmm(dev, p.a, p.b, p.c, options);
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
    ServeReport report;
    kernels::SpmmOptions options{.serve = &policy, .serve_report = &report};
    options.sim.threads = threads;
    kernels::spmm(dev, p.a, p.b, p.c, options);
    dev.set_fault_plan(nullptr);
    return report.to_json();
  };
  const std::string serial = run_once(1);
  EXPECT_EQ(serial, run_once(1));  // reproducible
  EXPECT_EQ(serial, run_once(2));  // thread-invariant
  EXPECT_EQ(serial, run_once(8));
}

// ---- supervised transformer under an attention fault storm ------------

TEST(ServeTransformer, ForwardPassSurvivesAttentionFaultStorm) {
  transformer::ModelConfig cfg;
  cfg.seq = 256;
  cfg.layers = 1;
  cfg.heads = 2;
  cfg.head_dim = 64;
  cfg.ffn_dim = 256;
  cfg.v = 8;
  cfg.band = 64;
  cfg.batch = 1;
  cfg.mode = transformer::Mode::kSparseHalf;

  ServePolicy policy;
  cfg.serve = &policy;

  // Transient double-bit upset on the attention mask's col_idx buffer,
  // SEC-DED detected on DRAM read.  The mask is the first upload on the
  // fresh device, so row_ptr sits at arena address 0 and col_idx at the
  // next 256-byte boundary (33 x 4-byte row_ptr entries round up to
  // 256).  Only the supervised SDDMM and SpMM launches read col_idx —
  // the sparse softmax between them reads row_ptr alone — so every
  // strike lands inside the fault boundary, and the per-SM transient
  // arming turns each strike into one detected attempt followed by a
  // clean retry.
  gpusim::FaultPlan storm(2021, /*ecc_enabled=*/true);
  storm.add_target({gpusim::FaultSite::kDramRead, /*addr=*/256,
                    /*bit=*/1, /*n_bits=*/2, /*sticky=*/false});
  cfg.attention_storm = &storm;

  gpusim::Device dev(test_config());
  transformer::ForwardResult res =
      transformer::run_transformer_forward(dev, cfg, /*seed=*/5);

  EXPECT_GT(res.serve_retries + res.serve_fallbacks, 0u);
  EXPECT_GT(res.total_cycles(), 0.0);

  // The storm-free pass reports no supervisor activity at all.
  transformer::ModelConfig clean_cfg = cfg;
  clean_cfg.serve = nullptr;
  clean_cfg.attention_storm = nullptr;
  gpusim::Device clean_dev(test_config());
  transformer::ForwardResult clean =
      transformer::run_transformer_forward(clean_dev, clean_cfg, /*seed=*/5);
  EXPECT_EQ(clean.serve_retries, 0u);
  EXPECT_EQ(clean.serve_fallbacks, 0u);
  EXPECT_GT(clean.total_cycles(), 0.0);
}

}  // namespace
}  // namespace vsparse
