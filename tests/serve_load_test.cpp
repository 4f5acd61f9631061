// The multi-tenant load scheduler's contracts: the chaos load report
// is byte-identical across engine thread counts and across repeated
// same-seed runs, a chaos run actually exercises the breaker machinery
// and the load-shedding paths while keeping the outcome accounting
// internally consistent, every request recovered under kernel or
// device chaos is bit-identical to a fault-free direct dispatch, and
// the fault-free scheduled path is bit- AND counter-identical to it
// (verify mode cross-checks every completed request against a
// reference device).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "vsparse/serve/scheduler.hpp"

namespace vsparse {
namespace {

using serve::LoadConfig;
using serve::LoadResult;
using serve::TenantStats;

// The canonical chaos configuration (mirrored by the CI serve-load
// job): 200 requests at a 12k-tick mean gap overdrives the interactive
// tenant enough to shed, and seed 2021's storm windows fire every
// outcome class — quarantines, restores, quota rejections, deadline
// misses.
LoadConfig chaos_config(int threads) {
  LoadConfig config;
  config.requests = 200;
  config.seed = 2021;
  config.threads = threads;
  config.mean_gap_ticks = 12'000;
  config.chaos = true;
  return config;
}

void expect_accounting_consistent(const TenantStats& t) {
  EXPECT_EQ(t.submitted, t.completed + t.failed + t.rejected + t.shed_queue +
                             t.shed_deadline)
      << "tenant " << t.name;
  EXPECT_EQ(t.completed, t.slo_met + t.deadline_miss) << "tenant " << t.name;
  EXPECT_LE(t.p50_latency_ticks, t.p99_latency_ticks) << "tenant " << t.name;
  EXPECT_LE(t.p99_latency_ticks, t.max_latency_ticks) << "tenant " << t.name;
}

TEST(ServeLoad, ChaosReportByteIdenticalAcrossThreadsAndRuns) {
  const LoadConfig c1 = chaos_config(1);
  const std::string serial = serve::run_load(c1).to_json(c1);
  EXPECT_EQ(serial, serve::run_load(c1).to_json(c1));  // reproducible

  // The thread count changes how the engine shards CTAs — and nothing
  // else the report is allowed to observe.
  const LoadConfig c2 = chaos_config(2);
  EXPECT_EQ(serial, serve::run_load(c2).to_json(c2));
  const LoadConfig c8 = chaos_config(8);
  EXPECT_EQ(serial, serve::run_load(c8).to_json(c8));
}

TEST(ServeLoad, ChaosRunFiresBreakersSheddingAndStaysConsistent) {
  const LoadConfig config = chaos_config(1);
  const LoadResult res = serve::run_load(config);

  // Every submitted request is accounted for exactly once, per tenant
  // and in total.
  EXPECT_EQ(res.total.submitted, static_cast<std::uint64_t>(config.requests));
  expect_accounting_consistent(res.total);
  TenantStats sum;
  for (const TenantStats& t : res.tenants) {
    expect_accounting_consistent(t);
    sum.submitted += t.submitted;
    sum.completed += t.completed;
    sum.slo_met += t.slo_met;
    sum.rejected += t.rejected;
    sum.failed += t.failed;
    sum.shed_queue += t.shed_queue;
    sum.shed_deadline += t.shed_deadline;
  }
  EXPECT_EQ(sum.submitted, res.total.submitted);
  EXPECT_EQ(sum.completed, res.total.completed);
  EXPECT_EQ(sum.slo_met, res.total.slo_met);
  EXPECT_EQ(sum.rejected, res.total.rejected);
  EXPECT_EQ(sum.failed, res.total.failed);
  EXPECT_EQ(sum.shed_queue, res.total.shed_queue);
  EXPECT_EQ(sum.shed_deadline, res.total.shed_deadline);

  // The storms actually bite: ECC bursts trip breakers (and cooldowns
  // later probe them), memory pressure rejects at admission, and load
  // shedding fires — classified, not crashing the loop.
  EXPECT_GT(res.health.quarantines, 0u);
  EXPECT_GT(res.health.half_opens, 0u);
  EXPECT_GT(res.total.rejected, 0u);
  EXPECT_GT(res.total.shed_queue + res.total.shed_deadline, 0u);
  EXPECT_GT(res.total.completed, 0u);
  EXPECT_GT(res.goodput_per_mtick, 0.0);
  EXPECT_GT(res.final_tick, 0u);

  // Verify is off, so nothing was cross-checked (the ChaosVerify tests
  // below run the same storm with it on).
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_EQ(res.counter_mismatches, 0u);

  // The serialized report carries the schema tag, the chaos plan, the
  // fleet section, and the exactly-once request ledger.
  const std::string json = res.to_json(config);
  EXPECT_NE(json.find("\"schema\":\"vsparse-load-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"ecc_burst\""), std::string::npos);
  EXPECT_NE(json.find("\"request_ledger\":["), std::string::npos);
  EXPECT_NE(json.find("\"fleet\":{"), std::string::npos);
  // Single device, no device chaos: no fleet recovery machinery fires.
  EXPECT_EQ(res.fleet.failovers, 0u);
  EXPECT_EQ(res.fleet.hedges, 0u);
  EXPECT_EQ(res.fleet.devices_lost, 0u);
  // Every executed request is exactly one placement on device 0.
  EXPECT_EQ(res.fleet.placements,
            res.total.completed + res.total.failed + res.total.rejected);
}

/// A count from the vsparse-serve-v1 header ({"schema":...,"retries":N,
/// ...}), which precedes every per-request line.
std::uint64_t serve_header_count(const std::string& report_json,
                                 const std::string& key) {
  const std::size_t at = report_json.find("\"" + key + "\":");
  if (at == std::string::npos || at > report_json.find("\"reports\":")) {
    ADD_FAILURE() << "serve report header lacks " << key;
    return 0;
  }
  return std::strtoull(report_json.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Run `config` with the verify cross-check on and assert bit-exact
/// recovery: every completed request — whether a retry, a ladder
/// fallback or a failover recovered it — matches a fault-free direct
/// dispatch, SM-local counters match wherever they must, every outcome
/// is classified, and the report is byte-identical at threads 1/2/8.
/// Returns the threads=1 result for config-specific checks.
LoadResult expect_chaos_verify_clean(LoadConfig config) {
  config.verify = true;
  config.threads = 1;
  const LoadResult res = serve::run_load(config);
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_EQ(res.counter_mismatches, 0u);
  EXPECT_GT(res.total.completed, 0u);
  expect_accounting_consistent(res.total);

  // The storms reach every recovery path: ECC detections are retried,
  // sticky ECC and brownouts walk the ladder, brownouts exhaust it, and
  // memory pressure rejects at admission.
  EXPECT_GT(serve_header_count(res.report_json, "retries"), 0u);
  EXPECT_GT(serve_header_count(res.report_json, "fallbacks"), 0u);
  EXPECT_GT(serve_header_count(res.report_json, "give_ups"), 0u);
  EXPECT_GT(res.total.rejected, 0u);
  EXPECT_EQ(res.report_json.find("\"code\":\"internal\""), std::string::npos);

  const std::string json = res.to_json(config);
  EXPECT_NE(json.find("\"verify\":{\"enabled\":true,\"mismatches\":0,"
                      "\"counter_mismatches\":0}"),
            std::string::npos);
  for (int threads : {2, 8}) {
    config.threads = threads;
    EXPECT_EQ(json, serve::run_load(config).to_json(config))
        << "threads=" << threads;
  }
  return res;
}

TEST(ServeLoad, ChaosVerifyRecoversBitExactAndByteIdenticalAcrossThreads) {
  const LoadResult res = expect_chaos_verify_clean(chaos_config(1));
  // One device at a 12k-tick gap overdrives the interactive backlog.
  EXPECT_GT(res.total.shed_queue, 0u);
}

TEST(ServeLoad, FleetChaosVerifyRecoversBitExactAndByteIdenticalAcrossThreads) {
  LoadConfig config = chaos_config(1);
  config.devices = 4;
  config.device_chaos = true;
  const LoadResult res = expect_chaos_verify_clean(config);
  // Four devices drain the backlogs, so nothing sheds; device storms
  // instead force failovers, each re-placement verified bit-exact.
  EXPECT_GT(res.fleet.failovers, 0u);
}

TEST(ServeLoad, FaultFreeScheduledPathIsBitAndCounterIdentical) {
  LoadConfig config;
  config.requests = 60;
  config.seed = 7;
  config.verify = true;  // cross-check against unsupervised dispatch
  const LoadResult res = serve::run_load(config);

  // No faults anywhere: every request completes on its first rung, and
  // the scheduled output is byte-identical (with SM-local counters
  // equal) to a direct dispatch of the same problem.
  EXPECT_EQ(res.total.completed, res.total.submitted);
  EXPECT_EQ(res.total.failed, 0u);
  EXPECT_EQ(res.total.rejected, 0u);
  EXPECT_EQ(res.mismatches, 0u);
  EXPECT_EQ(res.counter_mismatches, 0u);
  EXPECT_EQ(res.health.quarantines, 0u);
  expect_accounting_consistent(res.total);
}

}  // namespace
}  // namespace vsparse
