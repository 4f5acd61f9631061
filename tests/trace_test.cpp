// Launch-tracing acceptance tests: event structure and attribution,
// the zero-overhead contract (tracing off == bit-identical counters
// and results), determinism of the merged trace across host thread
// counts, fault/watchdog/abort events, warp-op sampling, the
// Perfetto + metrics.json exporters, and the per_sm_stats
// reset-between-launches regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/gpusim/trace/export.hpp"
#include "vsparse/gpusim/trace/trace.hpp"
#include "vsparse/kernels/dispatch.hpp"

namespace vsparse::gpusim {
namespace {

DeviceConfig test_config(int num_sms = 4) {
  DeviceConfig cfg;
  cfg.dram_capacity = 128 << 20;
  cfg.num_sms = num_sms;
  return cfg;
}

int count_kind(const LaunchTrace& lt, TraceEventKind kind) {
  return static_cast<int>(
      std::count_if(lt.events.begin(), lt.events.end(),
                    [&](const TraceEvent& e) { return e.kind == kind; }));
}

/// A CTA body with some per-warp instruction traffic and two barriers.
void busy_body(Cta& cta) {
  for (int w = 0; w < cta.num_warps(); ++w) {
    Warp warp = cta.warp(w);
    warp.count(Op::kIadd3, 4);
    warp.count(Op::kImad, 2);
  }
  cta.sync();
  cta.sync();
}

TEST(Trace, RecordsLaunchStructureAndMergesDeterministically) {
  Device dev(test_config());
  Trace trace;
  LaunchConfig cfg;
  cfg.grid = 6;
  cfg.cta_threads = 64;  // 2 warps per CTA
  const SimOptions sim{.threads = 1, .trace = {.sink = &trace}};
  const KernelStats stats = launch(dev, cfg, busy_body, sim);

  ASSERT_EQ(trace.launches().size(), 1u);
  const LaunchTrace& lt = trace.launches()[0];
  EXPECT_EQ(lt.grid, 6);
  EXPECT_EQ(lt.cta_threads, 64);
  EXPECT_EQ(lt.num_sms, 4);
  EXPECT_FALSE(lt.aborted);
  EXPECT_GT(lt.duration, 0u);
  EXPECT_TRUE(counters_equal(lt.stats, stats))
      << "merged trace counters must equal the launch's return value";

  // Bracketing: launch-scope begin/end around the per-SM streams.
  ASSERT_GE(lt.events.size(), 2u);
  EXPECT_EQ(lt.events.front().kind, TraceEventKind::kKernelBegin);
  EXPECT_EQ(lt.events.front().a, 6u);
  EXPECT_EQ(lt.events.front().b, 64u);
  EXPECT_EQ(lt.events.back().kind, TraceEventKind::kKernelEnd);
  EXPECT_EQ(lt.events.back().cycles, lt.duration);

  // Every CTA opens and closes, attributed to a valid SM, and the
  // merged stream is ordered by SM id (the deterministic merge order).
  EXPECT_EQ(count_kind(lt, TraceEventKind::kCtaBegin), 6);
  EXPECT_EQ(count_kind(lt, TraceEventKind::kCtaEnd), 6);
  EXPECT_EQ(count_kind(lt, TraceEventKind::kBarrier), 12);
  int last_sm = -1;
  for (const TraceEvent& ev : lt.events) {
    if (ev.sm < 0) continue;  // launch scope
    EXPECT_LT(ev.sm, 4);
    EXPECT_GE(ev.sm, last_sm) << "per-SM streams must merge in SM-id order";
    last_sm = ev.sm;
    if (ev.kind == TraceEventKind::kCtaBegin) {
      EXPECT_GE(ev.cta, 0);
      EXPECT_LT(ev.cta, 6);
      EXPECT_EQ(ev.a, 2u) << "kCtaBegin payload is the CTA's warp count";
    }
  }
}

TEST(Trace, DisabledTracingIsBitIdenticalToUntraced) {
  Rng rng(11);
  Cvs a = make_cvs(64, 128, 4, 0.6, rng);
  DenseMatrix<half_t> b(128, 64);
  b.fill_random_int(rng);

  const auto run_once = [&](Trace* sink) {
    Device dev(test_config(8));
    auto da = to_device(dev, a);
    auto db = to_device(dev, b);
    DenseMatrix<half_t> ch(64, 64);
    auto dc = to_device(dev, ch);
    kernels::SpmmOptions options;
    options.sim.threads = 1;
    options.sim.trace.sink = sink;
    auto run = kernels::spmm(dev, da, db, dc, options);
    std::vector<std::uint16_t> bits;
    for (half_t h : dc.buf.host()) bits.push_back(h.bits());
    return std::make_pair(run.stats, bits);
  };

  Trace trace;
  const auto untraced = run_once(nullptr);
  const auto traced = run_once(&trace);
  EXPECT_TRUE(counters_equal(untraced.first, traced.first))
      << "tracing must not perturb any counter";
  EXPECT_EQ(untraced.second, traced.second)
      << "tracing must not perturb results";
  ASSERT_EQ(trace.launches().size(), 1u);
  EXPECT_EQ(trace.launches()[0].kernel, "spmm_octet_v4");
}

TEST(Trace, MergedTraceIdenticalAcrossThreadCounts) {
  Rng rng(12);
  Cvs a = make_cvs(128, 128, 4, 0.5, rng);
  DenseMatrix<half_t> b(128, 128);
  b.fill_random_int(rng);

  struct Run {
    std::vector<TraceEvent> events;
    std::string perfetto;
    std::string metrics;
  };
  const auto run_with = [&](int threads) {
    Device dev(test_config(8));
    auto da = to_device(dev, a);
    auto db = to_device(dev, b);
    DenseMatrix<half_t> ch(128, 128);
    auto dc = to_device(dev, ch);
    Trace trace;
    kernels::SpmmOptions options;
    options.sim.threads = threads;
    options.sim.trace.sink = &trace;
    options.sim.trace.sample_ops = 256;  // sampling must be thread-invariant
    kernels::spmm(dev, da, db, dc, options);
    return Run{trace.launches().at(0).events, perfetto_json(trace),
               metrics_json(trace)};
  };

  const Run serial = run_with(1);
  EXPECT_FALSE(serial.events.empty());
  for (int threads : {2, 8}) {
    const Run threaded = run_with(threads);
    EXPECT_EQ(serial.events, threaded.events)
        << "merged event stream differs at threads=" << threads;
    EXPECT_EQ(serial.perfetto, threaded.perfetto)
        << "Perfetto export differs at threads=" << threads;
    // metrics.json embeds every counter, the L2/DRAM ones included.
    EXPECT_EQ(serial.metrics, threaded.metrics)
        << "metrics export differs at threads=" << threads;
  }
}

TEST(Trace, BarrierEventsCanBeSuppressed) {
  Device dev(test_config());
  LaunchConfig cfg;
  cfg.grid = 4;
  cfg.cta_threads = 64;

  // Every __syncthreads() is traced: 4 CTAs x 2 barriers.
  Trace with_barriers;
  launch(dev, cfg, busy_body,
         SimOptions{.threads = 1, .trace = {.sink = &with_barriers}});
  EXPECT_EQ(count_kind(with_barriers.launches()[0], TraceEventKind::kBarrier),
            8);
}

TEST(Trace, WarpOpSamplingFollowsTheStride) {
  Device dev(test_config(1));
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 32;
  const auto body = [](Cta& cta) {
    Warp w = cta.warp(0);
    for (int i = 0; i < 5; ++i) w.count(Op::kIadd3);
  };

  Trace every_op;
  launch(dev, cfg, body,
         SimOptions{.threads = 1,
                    .trace = {.sink = &every_op, .sample_ops = 1}});
  const LaunchTrace& dense = every_op.launches()[0];
  EXPECT_EQ(count_kind(dense, TraceEventKind::kWarpOp), 5);
  for (const TraceEvent& ev : dense.events) {
    if (ev.kind != TraceEventKind::kWarpOp) continue;
    EXPECT_EQ(ev.warp, 0);
    EXPECT_EQ(ev.cta, 0);
    EXPECT_LT(ev.a, static_cast<std::uint64_t>(kNumOps));
    EXPECT_GE(ev.b, 1u);  // batch size
  }

  Trace sparse;
  launch(dev, cfg, body,
         SimOptions{.threads = 1,
                    .trace = {.sink = &sparse, .sample_ops = 1000}});
  EXPECT_EQ(count_kind(sparse.launches()[0], TraceEventKind::kWarpOp), 0);

  Trace off;  // sample_ops = 0 (the default): no warp-op events at all
  launch(dev, cfg, body, SimOptions{.threads = 1, .trace = {.sink = &off}});
  EXPECT_EQ(count_kind(off.launches()[0], TraceEventKind::kWarpOp), 0);
}

TEST(Trace, WatchdogAbortIsTraced) {
  Device dev(test_config());
  LaunchConfig cfg;
  cfg.grid = 4;
  cfg.cta_threads = 64;
  Trace trace;
  const SimOptions sim{.threads = 1,
                       .watchdog_cta_ops = 500,
                       .trace = {.sink = &trace}};
  EXPECT_THROW(launch(
                   dev, cfg, [](Cta& cta) {
                     for (;;) cta.sync();
                   },
                   sim),
               LaunchTimeoutError);

  ASSERT_EQ(trace.launches().size(), 1u);
  const LaunchTrace& lt = trace.launches()[0];
  EXPECT_TRUE(lt.aborted);
  ASSERT_GE(count_kind(lt, TraceEventKind::kWatchdog), 1);
  EXPECT_EQ(count_kind(lt, TraceEventKind::kLaunchAbort), 1);
  EXPECT_EQ(lt.events.back().kind, TraceEventKind::kKernelEnd);
  for (const TraceEvent& ev : lt.events) {
    if (ev.kind == TraceEventKind::kWatchdog) {
      EXPECT_EQ(ev.a, 500u) << "kWatchdog payload a is the budget";
      EXPECT_GE(ev.b, 500u) << "payload b is the ops the CTA had issued";
    }
  }
}

TEST(Trace, EccEventsAreTraced) {
  std::vector<float> src(32, 1.0f);
  const auto read_word = [&](FaultPlan& plan, Trace& trace) {
    Device dev(test_config(1));
    auto buf = dev.alloc_copy<float>(src);
    plan.add_target({FaultSite::kDramRead, buf.addr(0), /*bit=*/1,
                     plan.ecc() ? 1 : 2, /*sticky=*/false});
    dev.set_fault_plan(&plan);
    LaunchConfig cfg;
    cfg.grid = 1;
    cfg.cta_threads = 32;
    launch(
        dev, cfg,
        [&](Cta& cta) {
          Warp w = cta.warp(0);
          AddrLanes addr;
          for (int lane = 0; lane < 32; ++lane) {
            addr[static_cast<std::size_t>(lane)] =
                buf.addr(static_cast<std::size_t>(lane));
          }
          Lanes<float> got{};
          w.ldg(addr, got);
        },
        SimOptions{.threads = 1, .trace = {.sink = &trace}});
  };

  // ECC on, single-bit flip: corrected in flight — injected + masked.
  FaultPlan corrected(/*seed=*/5, /*ecc_enabled=*/true);
  Trace masked_trace;
  read_word(corrected, masked_trace);
  const LaunchTrace& masked = masked_trace.launches()[0];
  EXPECT_FALSE(masked.aborted);
  EXPECT_EQ(count_kind(masked, TraceEventKind::kFaultInjected), 1);
  EXPECT_EQ(count_kind(masked, TraceEventKind::kFaultMasked), 1);
  EXPECT_EQ(count_kind(masked, TraceEventKind::kFaultDetected), 0);

  // ECC off: the upset lands silently — injected only, data corrupted.
  FaultPlan silent(/*seed=*/5, /*ecc_enabled=*/false);
  silent.set_ecc(false);
  Trace silent_trace;
  read_word(silent, silent_trace);
  const LaunchTrace& quiet = silent_trace.launches()[0];
  EXPECT_EQ(count_kind(quiet, TraceEventKind::kFaultInjected), 1);
  EXPECT_EQ(count_kind(quiet, TraceEventKind::kFaultMasked), 0);
}

TEST(Trace, DoubleBitDetectionAbortsAndIsTraced) {
  Device dev(test_config(1));
  std::vector<float> src(32, 1.0f);
  auto buf = dev.alloc_copy<float>(src);
  FaultPlan plan(/*seed=*/5, /*ecc_enabled=*/true);
  plan.add_target({FaultSite::kDramRead, buf.addr(0), /*bit=*/1,
                   /*n_bits=*/2, /*sticky=*/false});
  dev.set_fault_plan(&plan);
  Trace trace;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 32;
  EXPECT_THROW(
      launch(
          dev, cfg,
          [&](Cta& cta) {
            Warp w = cta.warp(0);
            AddrLanes addr;
            for (int lane = 0; lane < 32; ++lane) {
              addr[static_cast<std::size_t>(lane)] =
                  buf.addr(static_cast<std::size_t>(lane));
            }
            Lanes<float> got{};
            w.ldg(addr, got);
          },
          SimOptions{.threads = 1, .trace = {.sink = &trace}}),
      EccError);

  ASSERT_EQ(trace.launches().size(), 1u);
  const LaunchTrace& lt = trace.launches()[0];
  EXPECT_TRUE(lt.aborted);
  EXPECT_EQ(count_kind(lt, TraceEventKind::kFaultDetected), 1);
  EXPECT_EQ(count_kind(lt, TraceEventKind::kLaunchAbort), 1);
}

TEST(Trace, AbftRunsAnnotateTheTrace) {
  Rng rng(13);
  Cvs a = make_cvs(64, 64, 4, 0.5, rng);
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  Device dev(test_config(8));
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(64, 64);
  auto dc = to_device(dev, ch);

  Trace trace;
  kernels::SpmmOptions options;
  options.abft = kernels::AbftOptions{};
  options.sim.threads = 1;
  options.sim.trace.sink = &trace;
  auto run = kernels::spmm(dev, da, db, dc, options);
  EXPECT_TRUE(run.abft.enabled);

  ASSERT_GE(trace.launches().size(), 1u);
  const LaunchTrace& lt = trace.launches()[0];
  // A clean ABFT run records its verify pass (0 corrupted tiles) as a
  // launch-scope annotation pinned to the end of the launch.
  ASSERT_EQ(count_kind(lt, TraceEventKind::kAbftVerify), 1);
  for (const TraceEvent& ev : lt.events) {
    if (ev.kind == TraceEventKind::kAbftVerify) {
      EXPECT_EQ(ev.a, 0u);
      EXPECT_EQ(ev.sm, -1) << "ABFT verify is host-side, not SM-attributed";
      EXPECT_EQ(ev.cycles, lt.duration);
    }
  }
}

TEST(Trace, DeviceDefaultSinkIsInherited) {
  // The same inherit chain as `threads`: a launch with no per-call
  // sink picks up the device-wide TraceOptions.
  Trace trace;
  Device dev(test_config());
  dev.set_sim_options(SimOptions{.threads = 1, .trace = {.sink = &trace}});
  LaunchConfig cfg;
  cfg.grid = 2;
  launch(dev, cfg, [](Cta&) {});
  ASSERT_EQ(trace.launches().size(), 1u);
  EXPECT_EQ(trace.launches()[0].grid, 2);
}

TEST(Trace, ExportersEmitTheDocumentedSchema) {
  Device dev(test_config());
  Trace trace;
  LaunchConfig cfg;
  cfg.grid = 3;
  cfg.cta_threads = 64;
  cfg.profile.name = "trace_schema_kernel";
  launch(dev, cfg, busy_body,
         SimOptions{.threads = 1, .trace = {.sink = &trace}});

  const std::string perfetto = perfetto_json(trace);
  for (const char* needle :
       {"\"traceEvents\":[", "\"process_name\"",
        "\"args\":{\"name\":\"launch 0: trace_schema_kernel\"}",
        "\"args\":{\"name\":\"SM 0\"}", "\"args\":{\"name\":\"launch\"}",
        "\"ph\":\"X\"", "\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"i\"",
        "\"name\":\"barrier\"", "\"grid\":3"}) {
    EXPECT_NE(perfetto.find(needle), std::string::npos)
        << "perfetto export lacks " << needle;
  }

  const std::string metrics = metrics_json(trace);
  for (const char* needle :
       {"\"schema\": \"vsparse-metrics-v1\"", "\"num_launches\": 1",
        "\"kernel\": \"trace_schema_kernel\"", "\"grid\": 3",
        "\"cta_threads\": 64", "\"aborted\": false", "\"duration_cycles\": ",
        "\"by_kind\": {", "\"cta_begin\": 3", "\"barrier\": 6",
        "\"counters\":", "\"inst_iadd3\": ", "\"ctas_launched\": 3",
        "\"derived\": {", "\"sectors_per_request\": "}) {
    EXPECT_NE(metrics.find(needle), std::string::npos)
        << "metrics export lacks " << needle;
  }
  // Every registry counter has a key in the metrics export.
  for (const CounterDef& def : counter_registry()) {
    EXPECT_NE(metrics.find(std::string("\"") + def.name + "\": "),
              std::string::npos)
        << def.name;
  }
}

TEST(Trace, WriteTraceFilesWritesBothExports) {
  Device dev(test_config());
  Trace trace;
  LaunchConfig cfg;
  cfg.grid = 2;
  launch(dev, cfg, busy_body,
         SimOptions{.threads = 1, .trace = {.sink = &trace}});

  const std::string prefix = ::testing::TempDir() + "vsparse_trace_test";
  ASSERT_TRUE(write_trace_files(trace, prefix));
  for (const char* suffix : {".perfetto.json", ".metrics.json"}) {
    const std::string path = prefix + suffix;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0) << path << " is empty";
    std::fclose(f);
    std::remove(path.c_str());
  }
}

TEST(Trace, PerSmStatsAreResetEachLaunch) {
  // Regression: per_sm_stats documents "the most recent launch", but
  // the blocks used to carry stale counters from the previous launch
  // for any SM the new launch did not touch.
  Device dev(test_config(4));
  std::vector<KernelStats> per_sm;
  const SimOptions sim{.threads = 1, .per_sm_stats = &per_sm};

  LaunchConfig big;
  big.grid = 8;
  big.cta_threads = 64;
  launch(dev, big, busy_body, sim);
  ASSERT_EQ(per_sm.size(), 4u);
  for (const KernelStats& s : per_sm) EXPECT_GT(s.ctas_launched, 0u);

  LaunchConfig tiny;
  tiny.grid = 1;  // lands on SM 0 only
  tiny.cta_threads = 32;
  launch(dev, tiny, [](Cta&) {}, sim);
  ASSERT_EQ(per_sm.size(), 4u);
  std::uint64_t total_ctas = 0;
  for (const KernelStats& s : per_sm) total_ctas += s.ctas_launched;
  EXPECT_EQ(total_ctas, 1u)
      << "per_sm_stats must describe only the most recent launch";
  for (std::size_t sm = 1; sm < per_sm.size(); ++sm) {
    EXPECT_EQ(per_sm[sm].total_instructions(), 0u)
        << "stale counters on SM " << sm;
  }
}

}  // namespace
}  // namespace vsparse::gpusim
