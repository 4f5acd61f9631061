// Sanitizer acceptance tests: the seeded hazard corpus (each detector
// fires exactly once, with correct site attribution, deterministically
// at 1/2/8 host threads), abort-path delivery for hard smem OOB, the
// zero-overhead contract (sanitize-off AND sanitize-on-clean runs are
// bit-identical in counters and results), dedup + report-cap
// semantics, trace mirroring, named-allocation diagnostics, and a
// golden sweep asserting the shipped kernels are hazard-free on the
// benchmark suite's shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "vsparse/bench/scale.hpp"
#include "vsparse/bench/suite.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/sanitizer/report.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/gpusim/trace/trace.hpp"
#include "vsparse/kernels/dispatch.hpp"

#include "span_corpus.hpp"

namespace vsparse::gpusim {
namespace {

DeviceConfig test_config(int num_sms = 4) {
  DeviceConfig cfg;
  cfg.dram_capacity = 128 << 20;
  cfg.num_sms = num_sms;
  return cfg;
}

SanitizerOptions all_tools() { return SanitizerOptions{}; }

SanitizerOptions only(bool race, bool sync, bool init, bool bounds) {
  SanitizerOptions opts;
  opts.race = race;
  opts.sync = sync;
  opts.init = init;
  opts.bounds = bounds;
  return opts;
}

/// Run one seeded body at 1, 2, and 8 host threads and require the
/// delivered LaunchSanitizerRecord — and its JSON rendering — to be
/// identical across all three.  `make_body` receives the fresh device
/// (so bodies can capture per-device buffer addresses).
template <class MakeBody>
LaunchSanitizerRecord run_seeded(
    const LaunchConfig& cfg, const SanitizerOptions& tools,
    MakeBody&& make_body, bool expect_abort = false) {
  std::vector<LaunchSanitizerRecord> records;
  std::vector<std::string> jsons;
  for (int threads : {1, 2, 8}) {
    Device dev(test_config(4));
    Sanitizer sink;
    SimOptions sim;
    sim.threads = threads;
    sim.sanitize = tools;
    sim.sanitize.sink = &sink;
    const auto body = make_body(dev);
    if (expect_abort) {
      EXPECT_THROW(launch(dev, cfg, body, sim), CheckError);
    } else {
      launch(dev, cfg, body, sim);
    }
    const auto launches = sink.launches();
    EXPECT_EQ(launches.size(), 1u) << "threads=" << threads;
    records.push_back(launches.empty() ? LaunchSanitizerRecord{}
                                       : launches[0]);
    jsons.push_back(sanitizer_json(sink));
  }
  EXPECT_TRUE(records[0] == records[1])
      << "record differs between threads=1 and threads=2";
  EXPECT_TRUE(records[0] == records[2])
      << "record differs between threads=1 and threads=8";
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
  return records[0];
}

// ---------------------------------------------------------------------
// Seeded hazard corpus
// ---------------------------------------------------------------------

TEST(Sanitizer, InterWarpRawRaceFiresOnce) {
  LaunchConfig cfg;
  cfg.grid = 8;  // same hazard in every CTA must dedup to one report
  cfg.cta_threads = 64;
  cfg.smem_bytes = 64;
  const auto record = run_seeded(cfg, all_tools(), [](Device&) {
    return [](Cta& cta) {
      Lanes<std::uint32_t> off{};
      Lanes<std::int32_t> data{};
      // Warp 0 stores, warp 1 loads the same word with no barrier in
      // between: a classic inter-warp RAW shared-memory race.
      cta.warp(0).sts(off, data, 0x1u);
      cta.warp(1).lds(off, data, 0x1u);
    };
  });
  ASSERT_EQ(record.reports.size(), 1u);
  const SanitizerReport& r = record.reports[0];
  EXPECT_EQ(r.kind, HazardKind::kRawRace);
  EXPECT_EQ(r.tool(), SanitizerTool::kRace);
  EXPECT_EQ(r.sm, 0);
  EXPECT_EQ(r.cta, 0);
  EXPECT_EQ(r.first.warp, 0);
  EXPECT_EQ(r.first.op, Op::kSts);
  EXPECT_EQ(r.second.warp, 1);
  EXPECT_EQ(r.second.op, Op::kLds);
  EXPECT_EQ(r.addr, 0u);
  EXPECT_EQ(r.bytes, 4u);
  EXPECT_EQ(r.epoch, 0u);
}

TEST(Sanitizer, MissingBarrierInDoubleBufferIsRacy) {
  LaunchConfig cfg;
  cfg.grid = 4;
  cfg.cta_threads = 64;
  cfg.smem_bytes = 128;  // two 64 B buffers
  // Double-buffered epilogue that forgets the second barrier: after a
  // correct stage+sync on buffer 0, warp 0 refills buffer 1 while
  // warp 1 consumes it in the same epoch.
  const auto body_missing_barrier = [](Cta& cta) {
    Lanes<std::uint32_t> buf0{};
    Lanes<std::uint32_t> buf1{};
    for (auto& o : buf1) o = 64;
    Lanes<std::int32_t> data{};
    cta.warp(0).sts(buf0, data, 0x1u);
    cta.sync();
    cta.warp(1).lds(buf0, data, 0x1u);  // epoch 1: safe
    cta.warp(0).sts(buf1, data, 0x1u);  // refill...
    cta.warp(1).lds(buf1, data, 0x1u);  // ...consumed without a barrier
  };
  const auto record =
      run_seeded(cfg, all_tools(),
                 [&](Device&) { return body_missing_barrier; });
  ASSERT_EQ(record.reports.size(), 1u);
  EXPECT_EQ(record.reports[0].kind, HazardKind::kRawRace);
  EXPECT_EQ(record.reports[0].addr, 64u);
  EXPECT_EQ(record.reports[0].epoch, 1u);

  // The corrected kernel — barrier restored — is clean.
  const auto body_fixed = [](Cta& cta) {
    Lanes<std::uint32_t> buf0{};
    Lanes<std::uint32_t> buf1{};
    for (auto& o : buf1) o = 64;
    Lanes<std::int32_t> data{};
    cta.warp(0).sts(buf0, data, 0x1u);
    cta.sync();
    cta.warp(1).lds(buf0, data, 0x1u);
    cta.warp(0).sts(buf1, data, 0x1u);
    cta.sync();
    cta.warp(1).lds(buf1, data, 0x1u);
  };
  const auto clean =
      run_seeded(cfg, all_tools(), [&](Device&) { return body_fixed; });
  EXPECT_EQ(clean.reports.size(), 0u);
}

TEST(Sanitizer, WarAndWawRacesDetected) {
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 64;
  cfg.smem_bytes = 64;
  // Race tool only, so the deliberate read-before-write below is not
  // also flagged by initcheck.
  const auto record =
      run_seeded(cfg, only(true, false, false, false), [](Device&) {
        return [](Cta& cta) {
          Lanes<std::uint32_t> off{};
          Lanes<std::uint32_t> off2{};
          for (auto& o : off2) o = 32;
          Lanes<std::int32_t> data{};
          cta.warp(1).lds(off, data, 0x1u);   // reader...
          cta.warp(0).sts(off, data, 0x1u);   // ...overwritten: WAR
          cta.warp(0).sts(off2, data, 0x1u);  // writer...
          cta.warp(1).sts(off2, data, 0x1u);  // ...overwritten: WAW
        };
      });
  ASSERT_EQ(record.reports.size(), 2u);
  EXPECT_EQ(record.reports[0].kind, HazardKind::kWarRace);
  EXPECT_EQ(record.reports[0].first.warp, 1);
  EXPECT_EQ(record.reports[0].second.warp, 0);
  EXPECT_EQ(record.reports[1].kind, HazardKind::kWawRace);
  EXPECT_EQ(record.reports[1].addr, 32u);
}

TEST(Sanitizer, DivergentBarrierFiresOnce) {
  LaunchConfig cfg;
  cfg.grid = 8;
  cfg.cta_threads = 32;  // one warp: no mismatched-count side report
  const auto record = run_seeded(cfg, all_tools(), [](Device&) {
    return [](Cta& cta) { cta.warp(0).bar_sync(0x0000FFFFu); };
  });
  ASSERT_EQ(record.reports.size(), 1u);
  const SanitizerReport& r = record.reports[0];
  EXPECT_EQ(r.kind, HazardKind::kDivergentBarrier);
  EXPECT_EQ(r.tool(), SanitizerTool::kSync);
  EXPECT_EQ(r.second.warp, 0);
  EXPECT_EQ(r.second.op, Op::kBar);
  EXPECT_NE(r.detail.find("partial lane mask"), std::string::npos);
}

TEST(Sanitizer, BarrierCountMismatchAtCtaEnd) {
  LaunchConfig cfg;
  cfg.grid = 4;
  cfg.cta_threads = 64;
  const auto record = run_seeded(cfg, all_tools(), [](Device&) {
    return [](Cta& cta) {
      cta.warp(0).bar_sync();  // warp 1 never arrives
    };
  });
  ASSERT_EQ(record.reports.size(), 1u);
  const SanitizerReport& r = record.reports[0];
  EXPECT_EQ(r.kind, HazardKind::kBarrierMismatch);
  EXPECT_EQ(r.first.warp, 0);   // arrived the most
  EXPECT_EQ(r.second.warp, 1);  // arrived the least
  EXPECT_NE(r.detail.find("unequal barrier counts"), std::string::npos);
}

TEST(Sanitizer, UninitSmemReadFiresOnce) {
  LaunchConfig cfg;
  cfg.grid = 8;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 64;
  const auto record = run_seeded(cfg, all_tools(), [](Device&) {
    return [](Cta& cta) {
      Lanes<std::uint32_t> off{};
      for (auto& o : off) o = 16;
      Lanes<std::int32_t> data{};
      cta.warp(0).lds(off, data, 0x3u);  // nothing ever stored there
    };
  });
  ASSERT_EQ(record.reports.size(), 1u);
  const SanitizerReport& r = record.reports[0];
  EXPECT_EQ(r.kind, HazardKind::kUninitSmemRead);
  EXPECT_EQ(r.tool(), SanitizerTool::kInit);
  EXPECT_EQ(r.first.warp, -1);  // an uninit read has no writer site
  EXPECT_EQ(r.second.op, Op::kLds);
  EXPECT_EQ(r.addr, 16u);
  EXPECT_EQ(r.bytes, 8u);  // two lanes x 4 B, same word broadcast twice
}

TEST(Sanitizer, GlobalRedZoneReadFiresOnce) {
  LaunchConfig cfg;
  cfg.grid = 8;
  cfg.cta_threads = 32;
  const auto record = run_seeded(cfg, all_tools(), [](Device& dev) {
    // 100 ints end at +400; the next 256-aligned allocation starts at
    // +512, leaving a 112 B red zone that translate() accepts (it is
    // below the bump pointer) but no allocation owns.
    auto idx = dev.alloc<std::int32_t>(100, "idx");
    dev.alloc<std::int32_t>(64, "next");
    const std::uint64_t gap = idx.addr() + idx.bytes();
    return [gap](Cta& cta) {
      AddrLanes addr{};
      addr[0] = gap;
      Lanes<std::int32_t> dst{};
      cta.warp(0).ldg(addr, dst, 0x1u);
    };
  });
  ASSERT_EQ(record.reports.size(), 1u);
  const SanitizerReport& r = record.reports[0];
  EXPECT_EQ(r.kind, HazardKind::kGlobalOob);
  EXPECT_EQ(r.tool(), SanitizerTool::kBounds);
  EXPECT_EQ(r.second.op, Op::kLdg);
  EXPECT_NE(r.detail.find("'idx'"), std::string::npos)
      << "OOB report names the nearest allocation: " << r.detail;
}

TEST(Sanitizer, StoreIntoTailSlackIsOob) {
  LaunchConfig cfg;
  cfg.grid = 8;
  cfg.cta_threads = 32;
  // 100 ints end at +400 with 16 B of declared vector-load slack (and
  // the next allocation at +512): a load of the int at +400 is legal, a
  // store there is not.
  const auto body_at = [](bool store) {
    return [store](Device& dev) {
      auto out = dev.alloc<std::int32_t>(100, "out", /*tail_slack_bytes=*/16);
      dev.alloc<std::int32_t>(64, "next");
      const std::uint64_t tail = out.addr() + out.bytes();
      return [store, tail](Cta& cta) {
        AddrLanes addr{};
        addr[0] = tail;
        Lanes<std::int32_t> data{};
        if (store) {
          cta.warp(0).stg(addr, data, 0x1u);
        } else {
          cta.warp(0).ldg(addr, data, 0x1u);
        }
      };
    };
  };
  const auto stored = run_seeded(cfg, all_tools(), body_at(true));
  ASSERT_EQ(stored.reports.size(), 1u);
  EXPECT_EQ(stored.reports[0].kind, HazardKind::kGlobalOob);
  EXPECT_EQ(stored.reports[0].second.op, Op::kStg);
  EXPECT_NE(stored.reports[0].detail.find("'out'"), std::string::npos)
      << stored.reports[0].detail;

  const auto loaded = run_seeded(cfg, all_tools(), body_at(false));
  EXPECT_TRUE(loaded.reports.empty());
}

TEST(Sanitizer, UseAfterFreeDetected) {
  LaunchConfig cfg;
  cfg.grid = 2;
  cfg.cta_threads = 32;
  const auto record = run_seeded(cfg, all_tools(), [](Device& dev) {
    auto stale = dev.alloc<std::int32_t>(64, "stale");
    const std::uint64_t addr0 = stale.addr();
    dev.free(stale);
    return [addr0](Cta& cta) {
      AddrLanes addr{};
      addr[0] = addr0;
      Lanes<std::int32_t> dst{};
      cta.warp(0).ldg(addr, dst, 0x1u);
    };
  });
  ASSERT_EQ(record.reports.size(), 1u);
  EXPECT_EQ(record.reports[0].kind, HazardKind::kGlobalUseAfterFree);
  EXPECT_NE(record.reports[0].detail.find("'stale'"), std::string::npos);
}

TEST(Sanitizer, SmemOobReportedThenLaunchAborts) {
  LaunchConfig cfg;
  cfg.grid = 4;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 32;
  const auto record = run_seeded(
      cfg, all_tools(),
      [](Device&) {
        return [](Cta& cta) {
          Lanes<std::uint32_t> off{};
          for (auto& o : off) o = 32;  // first byte past the window
          Lanes<std::int32_t> data{};
          cta.warp(0).lds(off, data, 0x1u);
        };
      },
      /*expect_abort=*/true);
  // The hazard is reported even though the engine's always-on bounds
  // check unwinds the launch right after: abort-path delivery.
  EXPECT_TRUE(record.aborted);
  ASSERT_EQ(record.reports.size(), 1u);
  EXPECT_EQ(record.reports[0].kind, HazardKind::kSmemOob);
  EXPECT_EQ(record.reports[0].tool(), SanitizerTool::kBounds);
  EXPECT_EQ(record.reports[0].addr, 32u);
}

// ---------------------------------------------------------------------
// Semantics: tool gating, caps, trace mirroring
// ---------------------------------------------------------------------

TEST(Sanitizer, ToolGatingFiltersKinds) {
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 64;
  // An uninit read with initcheck off must not report.
  const auto record =
      run_seeded(cfg, only(true, true, false, true), [](Device&) {
        return [](Cta& cta) {
          Lanes<std::uint32_t> off{};
          Lanes<std::int32_t> data{};
          cta.warp(0).lds(off, data, 0x1u);
        };
      });
  EXPECT_EQ(record.reports.size(), 0u);
}

TEST(Sanitizer, ReportCapCountsSuppressed) {
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 64;
  SanitizerOptions opts = all_tools();
  opts.max_reports = 1;
  const auto record = run_seeded(cfg, opts, [](Device&) {
    return [](Cta& cta) {
      Lanes<std::uint32_t> a{};
      Lanes<std::uint32_t> b{};
      for (auto& o : b) o = 32;
      Lanes<std::int32_t> data{};
      cta.warp(0).lds(a, data, 0x1u);  // uninit #1: kept
      cta.warp(0).lds(b, data, 0x1u);  // uninit #2: over the cap
    };
  });
  EXPECT_EQ(record.reports.size(), 1u);
  EXPECT_EQ(record.suppressed, 1u);
}

TEST(Sanitizer, HazardsMirrorIntoTraceStream) {
  LaunchConfig cfg;
  cfg.grid = 2;
  cfg.cta_threads = 32;
  cfg.smem_bytes = 64;
  Device dev(test_config(4));
  Trace trace;
  Sanitizer sink;
  SimOptions sim;
  sim.threads = 1;
  sim.trace.sink = &trace;
  sim.sanitize.sink = &sink;
  launch(dev, cfg, [](Cta& cta) {
    Lanes<std::uint32_t> off{};
    Lanes<std::int32_t> data{};
    cta.warp(0).lds(off, data, 0x1u);
  }, sim);
  ASSERT_EQ(trace.launches().size(), 1u);
  const auto& events = trace.launches()[0].events;
  const auto it = std::find_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return e.kind == TraceEventKind::kSanitizer;
      });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->a, static_cast<std::uint64_t>(SanitizerTool::kInit));
  EXPECT_EQ(it->b,
            static_cast<std::uint64_t>(HazardKind::kUninitSmemRead));
}

TEST(Sanitizer, ParseToolListSelectsTools) {
  SanitizerOptions opts;
  EXPECT_TRUE(parse_sanitizer_tools("race,init", &opts));
  EXPECT_TRUE(opts.race);
  EXPECT_FALSE(opts.sync);
  EXPECT_TRUE(opts.init);
  EXPECT_FALSE(opts.bounds);
  EXPECT_TRUE(parse_sanitizer_tools("all", &opts));
  EXPECT_TRUE(opts.race && opts.sync && opts.init && opts.bounds);
  EXPECT_FALSE(parse_sanitizer_tools("race,bogus", &opts));
}

// ---------------------------------------------------------------------
// Zero-overhead contract and diagnostics
// ---------------------------------------------------------------------

TEST(Sanitizer, CleanKernelBitIdenticalWithSanitizerOn) {
  Rng rng(23);
  Cvs a = make_cvs(64, 128, 4, 0.6, rng);
  DenseMatrix<half_t> b(128, 64);
  b.fill_random_int(rng);

  const auto run_once = [&](Sanitizer* sink) {
    Device dev(test_config(8));
    auto da = to_device(dev, a);
    auto db = to_device(dev, b);
    DenseMatrix<half_t> ch(64, 64);
    auto dc = to_device(dev, ch);
    kernels::SpmmOptions options;
    options.sim.threads = 1;
    options.sim.sanitize.sink = sink;
    auto run = kernels::spmm(dev, da, db, dc, options);
    std::vector<std::uint16_t> bits;
    for (half_t h : dc.buf.host()) bits.push_back(h.bits());
    return std::make_pair(run.stats, bits);
  };

  Sanitizer sink;
  const auto off = run_once(nullptr);
  const auto on = run_once(&sink);
  EXPECT_TRUE(counters_equal(off.first, on.first))
      << "a clean sanitized run must not perturb any counter";
  EXPECT_EQ(off.second, on.second)
      << "a clean sanitized run must not perturb results";
  ASSERT_EQ(sink.launches().size(), 1u);
  EXPECT_EQ(sink.launches()[0].kernel, "spmm_octet_v4");
  EXPECT_EQ(sink.launches()[0].reports.size(), 0u);
  EXPECT_EQ(sink.num_reports(), 0u);
}

TEST(Sanitizer, TranslateErrorNamesOffendingAllocation) {
  Device dev(test_config());
  dev.alloc<std::int32_t>(16, "weights");
  try {
    dev.translate(1u << 20, 4);
    FAIL() << "translate past the bump pointer must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("device OOB access"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'weights'"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Golden sweep: shipped kernels are hazard-free on the suite's shapes
// ---------------------------------------------------------------------

TEST(SanitizerSweep, ShippedKernelsCleanOnSuiteShapes) {
  Sanitizer sink;
  const auto all_shapes = bench::suite_shapes(bench::Scale::kSmall);
  const std::vector<bench::Shape> shapes(
      all_shapes.begin(),
      all_shapes.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(all_shapes.size(), 2)));
  int cases = 0;
  for (const int v : {1, 2, 4, 8}) {
    for (const double sparsity : {0.5, 0.98}) {
      for (const bench::Shape& shape : shapes) {
        const Cvs a = bench::make_suite_cvs(shape, sparsity, v);
        Rng rng(bench::bench_seed(shape, sparsity, v));
        DenseMatrix<half_t> b(shape.k, 64);
        b.fill_random_int(rng);
        kernels::SpmmOptions options;
        options.sim.threads = 2;
        options.sim.sanitize.sink = &sink;
        const std::vector<kernels::SpmmAlgorithm> algos =
            v == 1 ? std::vector<kernels::SpmmAlgorithm>{
                         kernels::SpmmAlgorithm::kFpuSubwarp,
                         kernels::SpmmAlgorithm::kCsrFine}
                   : std::vector<kernels::SpmmAlgorithm>{
                         kernels::SpmmAlgorithm::kOctet,
                         kernels::SpmmAlgorithm::kFpuSubwarp};
        for (const auto algo : algos) {
          options.algorithm = algo;
          kernels::spmm_host(a, b, options);
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 0);
  EXPECT_EQ(sink.num_launches(), static_cast<std::size_t>(cases));
  for (const auto& l : sink.launches()) {
    EXPECT_EQ(l.reports.size(), 0u)
        << l.kernel << " reported: "
        << (l.reports.empty() ? "" : to_string(l.reports[0]));
  }
}

TEST(SanitizerSweep, ShippedSddmmCleanOnSuiteShapes) {
  Sanitizer sink;
  const auto all_shapes = bench::suite_shapes(bench::Scale::kSmall);
  const std::vector<bench::Shape> shapes(
      all_shapes.begin(),
      all_shapes.begin() +
          static_cast<std::ptrdiff_t>(std::min<std::size_t>(all_shapes.size(), 2)));
  int cases = 0;
  for (const int v : {1, 2, 4, 8}) {
    for (const bench::Shape& shape : shapes) {
      Rng rng(bench::bench_seed(shape, 0.9, v));
      Cvs mask = make_cvs_mask(shape.m, 64, v, 0.9, rng);
      DenseMatrix<half_t> a(shape.m, shape.k);
      DenseMatrix<half_t> b(shape.k, 64, Layout::kColMajor);
      a.fill_random_int(rng);
      b.fill_random_int(rng);
      kernels::SddmmOptions options;
      options.sim.threads = 2;
      options.sim.sanitize.sink = &sink;
      Device dev;
      auto da = to_device(dev, a);
      auto db = to_device(dev, b);
      auto dmask = to_device(dev, mask);
      auto out = dev.alloc<half_t>(mask.values.size());
      kernels::sddmm(dev, da, db, dmask, out, options);
      ++cases;
    }
  }
  EXPECT_GT(cases, 0);
  EXPECT_EQ(sink.num_launches(), static_cast<std::size_t>(cases));
  for (const auto& l : sink.launches()) {
    EXPECT_EQ(l.reports.size(), 0u)
        << l.kernel << " reported: "
        << (l.reports.empty() ? "" : to_string(l.reports[0]));
  }
}

// ---------------------------------------------------------------------
// Span ops under the sanitizer (DESIGN.md §2h): with a sanitizer
// attached every span op self-diverts onto the per-lane path, so the
// sanitizer sees the exact per-lane access sequence.  A clean span
// corpus must report nothing, and the diversion must not perturb
// results or counters — neither against the unsanitized span run nor
// against a sanitized hand-expanded per-lane run.

TEST(SanitizerSpan, CorpusCleanAndUnperturbedUnderAllTools) {
  // All four tools, then race, sync and bounds without init.
  for (const SanitizerOptions& tools :
       {all_tools(), only(true, true, false, true)}) {
    SCOPED_TRACE(tools.init ? "all tools" : "race,sync,bounds");
    const auto run_once = [&](bool use_span, Sanitizer* sink) {
      Device dev(test_config(4));
      SimOptions sim;
      sim.threads = 1;
      if (sink != nullptr) {
        sim.sanitize = tools;
        sim.sanitize.sink = sink;
      }
      return run_span_corpus(dev, use_span, sim);
    };

    Sanitizer span_sink;
    Sanitizer lane_sink;
    const auto span_off = run_once(true, nullptr);
    const auto span_on = run_once(true, &span_sink);
    const auto lane_on = run_once(false, &lane_sink);

    // Zero reports on every tool for the span run.
    ASSERT_EQ(span_sink.launches().size(), 1u);
    EXPECT_EQ(span_sink.launches()[0].kernel, "span_corpus");
    EXPECT_EQ(span_sink.num_reports(), 0u);
    EXPECT_EQ(span_sink.num_reports(SanitizerTool::kRace), 0u);
    EXPECT_EQ(span_sink.num_reports(SanitizerTool::kSync), 0u);
    EXPECT_EQ(span_sink.num_reports(SanitizerTool::kInit), 0u);
    EXPECT_EQ(span_sink.num_reports(SanitizerTool::kBounds), 0u);
    EXPECT_EQ(lane_sink.num_reports(), 0u);

    // The divert is invisible: sanitized span == unsanitized span ==
    // sanitized per-lane, in bits and counters.
    EXPECT_EQ(span_off.dst_bits, span_on.dst_bits);
    EXPECT_TRUE(counters_equal(span_off.total, span_on.total))
        << "sanitized span run perturbed counters";
    EXPECT_EQ(span_on.dst_bits, lane_on.dst_bits);
    EXPECT_TRUE(counters_equal(span_on.total, lane_on.total))
        << "span and per-lane differ under the sanitizer";
  }
}

TEST(SanitizerSpan, RacecheckSeesThroughSpanStores) {
  // Two warps sts_span to the same smem words with no barrier: the
  // span store must not mask the race from racecheck.
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 64;
  cfg.smem_bytes = 256;
  cfg.profile.name = "span_race";
  const auto rec = run_seeded(cfg, only(true, false, false, false),
                              [&](Device&) {
    return [](Cta& cta) {
      Lanes<std::uint32_t> v{};
      Warp w0 = cta.warp(0);
      Warp w1 = cta.warp(1);
      w0.sts_span(0, 4, v);
      w1.sts_span(0, 4, v);  // WAW with warp 0, no barrier
    };
  });
  EXPECT_EQ(rec.reports.size(), 1u);
  ASSERT_FALSE(rec.reports.empty());
  EXPECT_EQ(rec.reports[0].tool(), SanitizerTool::kRace);
}

}  // namespace
}  // namespace vsparse::gpusim
