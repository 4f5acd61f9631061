// Thread-count sweep for the sharded execution engine: the same
// kernel launched with 1, 2, and 8 host threads must produce
// bit-identical functional results, bit-identical counters — merged
// and per SM, the L2 hit/miss split and DRAM bytes included — and
// identical CostModel cycles (the determinism contract of
// engine/launch.hpp: SMs log their L2 accesses and the launch replays
// them in CTA order).  Also covers launches spanning several replay
// epochs, what an aborted launch leaves behind (its L2, error, trace
// and fault tallies), the Scheduler's round-robin assignment,
// SimOptions inheritance from the device, and exception propagation
// out of worker threads (the lowest throwing CTA's error, at any
// thread count).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/costmodel.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/scheduler.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/gpusim/trace/export.hpp"
#include "vsparse/gpusim/trace/trace.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

#include "span_corpus.hpp"

namespace vsparse::kernels {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

struct SweepRun {
  std::vector<std::uint16_t> out_bits;      ///< downloaded result payload
  gpusim::KernelStats total;                ///< merged launch counters
  std::vector<gpusim::KernelStats> per_sm;  ///< one block per device SM
  double cycles = 0;                        ///< CostModel estimate
};

/// Run the octet SpMM end to end with `threads` workers.
SweepRun run_spmm(int threads, const Cvs& a_host,
                  const DenseMatrix<half_t>& b_host) {
  SweepRun run;
  gpusim::Device dev(test_config());
  gpusim::SimOptions sim{.threads = threads, .per_sm_stats = &run.per_sm};
  auto a = to_device(dev, a_host);
  auto b = to_device(dev, b_host);
  DenseMatrix<half_t> ch(a_host.rows, b_host.cols());
  auto c = to_device(dev, ch);
  const KernelRun kr = spmm_octet(dev, a, b, c, {}, sim);
  run.total = kr.stats;
  run.cycles = kr.cost(dev.config()).cycles;
  for (half_t h : c.buf.host()) run.out_bits.push_back(h.bits());
  return run;
}

/// Run the octet SDDMM end to end with `threads` workers.
SweepRun run_sddmm(int threads, const DenseMatrix<half_t>& a_host,
                   const DenseMatrix<half_t>& b_host, const Cvs& mask_host) {
  SweepRun run;
  gpusim::Device dev(test_config());
  gpusim::SimOptions sim{.threads = threads, .per_sm_stats = &run.per_sm};
  auto a = to_device(dev, a_host);
  auto b = to_device(dev, b_host);
  auto mask = to_device(dev, mask_host);
  auto out = dev.alloc<half_t>(mask_host.col_idx.size() *
                               static_cast<std::size_t>(mask_host.v));
  const KernelRun kr = sddmm_octet(dev, a, b, mask, out, {}, sim);
  run.total = kr.stats;
  run.cycles = kr.cost(dev.config()).cycles;
  for (half_t h : out.host()) run.out_bits.push_back(h.bits());
  return run;
}

/// Every counter, merged and per SM, equal between a serial baseline
/// and an N-thread run.
void expect_counters_thread_invariant(
    const gpusim::KernelStats& base_total,
    const std::vector<gpusim::KernelStats>& base_per_sm,
    const gpusim::KernelStats& total,
    const std::vector<gpusim::KernelStats>& per_sm, int threads) {
  EXPECT_TRUE(gpusim::counters_equal(base_total, total))
      << "merged counters differ at threads=" << threads << "\nserial:\n"
      << base_total.to_string() << "\nthreaded:\n"
      << total.to_string();
  ASSERT_EQ(base_per_sm.size(), per_sm.size());
  for (std::size_t sm = 0; sm < base_per_sm.size(); ++sm) {
    EXPECT_TRUE(gpusim::counters_equal(base_per_sm[sm], per_sm[sm]))
        << "per-SM counters differ on SM " << sm << " at threads=" << threads
        << "\nserial:\n"
        << base_per_sm[sm].to_string() << "\nthreaded:\n"
        << per_sm[sm].to_string();
  }
}

/// The determinism contract between a serial baseline and an N-thread
/// run of the same launch.
void expect_thread_invariant(const SweepRun& base, const SweepRun& run,
                             int threads) {
  ASSERT_EQ(base.out_bits.size(), run.out_bits.size());
  for (std::size_t i = 0; i < base.out_bits.size(); ++i) {
    ASSERT_EQ(base.out_bits[i], run.out_bits[i])
        << "output word " << i << " differs at threads=" << threads;
  }
  expect_counters_thread_invariant(base.total, base.per_sm, run.total,
                                   run.per_sm, threads);
  EXPECT_EQ(base.cycles, run.cycles)
      << "CostModel cycles differ at threads=" << threads;
}

/// Per-SM blocks must sum to the merged total on every field.
void expect_per_sm_sums_to_total(const SweepRun& run) {
  gpusim::KernelStats sum;
  for (const auto& sm : run.per_sm) sum += sm;
  EXPECT_TRUE(gpusim::counters_equal(sum, run.total));
}

TEST(EngineThreadSweep, SpmmBitExactAcrossThreadCounts) {
  Rng rng(99);
  Cvs a = make_cvs(128, 96, 4, 0.6, rng);
  for (half_t& h : a.values) {
    h = half_t(static_cast<float>(rng.uniform_int(-3, 3)));
  }
  DenseMatrix<half_t> b(96, 64);
  b.fill_random_int(rng);

  const SweepRun serial = run_spmm(1, a, b);
  expect_per_sm_sums_to_total(serial);
  EXPECT_GT(serial.total.ctas_launched, 1u);  // sweep exercises > 1 SM
  for (int threads : {2, 8}) {
    const SweepRun threaded = run_spmm(threads, a, b);
    expect_thread_invariant(serial, threaded, threads);
    expect_per_sm_sums_to_total(threaded);
  }
}

TEST(EngineThreadSweep, SddmmBitExactAcrossThreadCounts) {
  Rng rng(7);
  DenseMatrix<half_t> a(64, 96);
  DenseMatrix<half_t> b(96, 128, Layout::kColMajor);
  a.fill_random_int(rng);
  b.fill_random_int(rng);
  Cvs mask = make_cvs_mask(64, 128, 4, 0.5, rng);

  const SweepRun serial = run_sddmm(1, a, b, mask);
  expect_per_sm_sums_to_total(serial);
  for (int threads : {2, 8}) {
    const SweepRun threaded = run_sddmm(threads, a, b, mask);
    expect_thread_invariant(serial, threaded, threads);
    expect_per_sm_sums_to_total(threaded);
  }
}

TEST(EngineThreadSweep, PerSmStatsSizedToDeviceWithIdleSmsZero) {
  gpusim::Device dev(test_config());
  std::vector<gpusim::KernelStats> per_sm;
  gpusim::LaunchConfig cfg;
  cfg.grid = 3;  // fewer CTAs than SMs: SMs 3..7 stay idle
  cfg.cta_threads = 32;
  gpusim::launch(
      dev, cfg, [](gpusim::Cta&) {},
      gpusim::SimOptions{.threads = 8, .per_sm_stats = &per_sm});
  ASSERT_EQ(per_sm.size(), 8u);
  for (int sm = 0; sm < 3; ++sm) {
    EXPECT_EQ(per_sm[static_cast<std::size_t>(sm)].ctas_launched, 1u);
  }
  for (int sm = 3; sm < 8; ++sm) {
    EXPECT_EQ(per_sm[static_cast<std::size_t>(sm)].ctas_launched, 0u);
    EXPECT_EQ(per_sm[static_cast<std::size_t>(sm)].total_instructions(), 0u);
  }
}

TEST(EngineThreadSweep, DeviceDefaultThreadsInherited) {
  // threads = 0 in the per-launch options defers to the device-wide
  // policy installed by Device::set_sim_options (what the bench
  // drivers' --threads flag sets).
  Rng rng(11);
  Cvs a = make_cvs(64, 96, 4, 0.5, rng);
  DenseMatrix<half_t> b(96, 64);
  b.fill_random_int(rng);

  const SweepRun serial = run_spmm(1, a, b);

  gpusim::Device dev(test_config());
  dev.set_sim_options(gpusim::SimOptions{.threads = 8});
  EXPECT_EQ(dev.sim_options().threads, 8);
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(a.rows, b.cols());
  auto dc = to_device(dev, ch);
  spmm_octet(dev, da, db, dc);  // no explicit SimOptions: inherit
  std::size_t i = 0;
  for (half_t h : dc.buf.host()) {
    ASSERT_EQ(h.bits(), serial.out_bits[i]) << "word " << i;
    ++i;
  }
}

TEST(EngineThreadSweep, WorkerExceptionsPropagate) {
  gpusim::Device dev(test_config());
  gpusim::LaunchConfig cfg;
  cfg.grid = 16;
  cfg.cta_threads = 32;
  auto body = [](gpusim::Cta& cta) {
    if (cta.cta_id() == 13) throw std::runtime_error("cta 13 failed");
  };
  EXPECT_THROW(
      gpusim::launch(dev, cfg, body, gpusim::SimOptions{.threads = 8}),
      std::runtime_error);
  // The engine must stay usable after a failed launch.
  gpusim::KernelStats stats = gpusim::launch(
      dev, cfg, [](gpusim::Cta&) {}, gpusim::SimOptions{.threads = 8});
  EXPECT_EQ(stats.ctas_launched, 16u);
}

TEST(EngineThreadSweep, LowestThrowingCtaErrorWinsAtEveryThreadCount) {
  // CTAs 5 and 14 live on SMs 5 and 6.  CTA 5 stalls before throwing,
  // so at threads > 1 CTA 14's error usually reaches the engine first;
  // the launch must still raise CTA 5's, the lowest throwing CTA's.
  gpusim::Device dev(test_config());
  gpusim::LaunchConfig cfg;
  cfg.grid = 16;
  cfg.cta_threads = 32;
  auto body = [](gpusim::Cta& cta) {
    if (cta.cta_id() == 5) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      throw std::runtime_error("cta 5 failed");
    }
    if (cta.cta_id() == 14) throw std::runtime_error("cta 14 failed");
  };
  for (int threads : {1, 2, 8}) {
    for (int rep = 0; rep < 5; ++rep) {
      try {
        gpusim::launch(dev, cfg, body, gpusim::SimOptions{.threads = threads});
        FAIL() << "launch did not throw at threads=" << threads;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "cta 5 failed")
            << "threads=" << threads << " run " << rep;
      }
    }
  }
}

// ---------------------------------------------------------------------
// L2 replay: launches whose L2 outcomes depend on the order CTAs on
// different SMs touch shared lines.

constexpr int kTableLines = 900;  ///< 112.5 KiB: overflows the small L2

/// test_config() with a 64 KiB L2, so the shared-table traffic below
/// evicts and the LRU order matters.
gpusim::DeviceConfig small_l2_config() {
  gpusim::DeviceConfig cfg = test_config();
  cfg.l2_bytes = 64 << 10;
  return cfg;
}

gpusim::LaunchConfig one_warp_launch(int grid) {
  gpusim::LaunchConfig cfg;
  cfg.grid = grid;
  cfg.cta_threads = 32;
  return cfg;
}

/// The shared table: kTableLines 128 B lines of distinct words.
gpusim::Buffer<std::uint32_t> make_table(gpusim::Device& dev) {
  auto table = dev.alloc<std::uint32_t>(kTableLines * 32, "table");
  for (std::size_t i = 0; i < table.size(); ++i) {
    table.host()[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  return table;
}

/// Counters, CostModel cycles and output of one launch of the
/// shared-table kernel: CTA c loads eight lines of `table` that CTAs on
/// other SMs also load, and stores one line of its own.  CTA
/// `throw_at` throws after its fourth load (-1: none throws).
SweepRun run_shared_table(gpusim::Device& dev,
                          const gpusim::Buffer<std::uint32_t>& table,
                          int grid, int throw_at, int threads) {
  auto out = dev.alloc<std::uint32_t>(static_cast<std::size_t>(grid) * 32,
                                      "out");
  SweepRun run;
  const gpusim::LaunchConfig cfg = one_warp_launch(grid);
  run.total = gpusim::launch(
      dev, cfg,
      [&](gpusim::Cta& cta) {
        gpusim::Warp w = cta.warp(0);
        gpusim::Lanes<std::uint32_t> v{};
        gpusim::Lanes<std::uint32_t> acc{};
        const auto c = static_cast<std::uint64_t>(cta.cta_id());
        for (std::uint64_t k = 0; k < 8; ++k) {
          // Four lines shared with the neighbouring CTAs (other SMs, so
          // reused through the L2), four scattered ones (reused at
          // distances near the L2's capacity, where LRU order decides).
          const std::uint64_t line =
              (k < 4 ? c + k : c * 37 + k * 101) % kTableLines;
          w.ldg_span(table.addr(line * 32), 4, v);
          for (std::size_t l = 0; l < 32; ++l) acc[l] += v[l];
          if (k == 3 && cta.cta_id() == throw_at) {
            throw std::runtime_error("shared-table cta failed");
          }
        }
        w.stg_span(out.addr(c * 32), 4, acc);
      },
      gpusim::SimOptions{.threads = threads, .per_sm_stats = &run.per_sm});
  run.cycles = gpusim::estimate_cost(dev.config(), cfg, run.total).cycles;
  for (std::uint32_t word : out.host()) {
    run.out_bits.push_back(static_cast<std::uint16_t>(word));
    run.out_bits.push_back(static_cast<std::uint16_t>(word >> 16));
  }
  return run;
}

/// Counters of a launch that loads every table line once, in order: a
/// probe of what the L2 holds.
SweepRun probe_table(gpusim::Device& dev,
                     const gpusim::Buffer<std::uint32_t>& table,
                     int threads) {
  SweepRun run;
  const gpusim::LaunchConfig cfg = one_warp_launch(kTableLines);
  run.total = gpusim::launch(
      dev, cfg,
      [&](gpusim::Cta& cta) {
        gpusim::Lanes<std::uint32_t> v{};
        cta.warp(0).ldg_span(
            table.addr(static_cast<std::size_t>(cta.cta_id()) * 32), 4, v);
      },
      gpusim::SimOptions{.threads = threads, .per_sm_stats = &run.per_sm});
  run.cycles = gpusim::estimate_cost(dev.config(), cfg, run.total).cycles;
  return run;
}

TEST(EngineThreadSweep, LaunchOverThreeEpochsIsThreadInvariant) {
  // 600 CTAs on 8 SMs run in three replay epochs (256 + 256 + 88).
  constexpr int kGrid = 600;
  static_assert(kGrid > 2 * gpusim::kEpochRounds * 8);
  gpusim::Device dserial(small_l2_config());
  const SweepRun serial =
      run_shared_table(dserial, make_table(dserial), kGrid, -1, 1);
  expect_per_sm_sums_to_total(serial);
  // Shared lines are both filled and reused through the L2.
  EXPECT_GT(serial.total.l2_sector_hits, 0u);
  EXPECT_GT(serial.total.l2_sector_misses, 0u);
  EXPECT_GT(serial.total.dram_read_bytes, 0u);
  for (int threads : {2, 8}) {
    gpusim::Device dev(small_l2_config());
    const SweepRun threaded =
        run_shared_table(dev, make_table(dev), kGrid, -1, threads);
    expect_thread_invariant(serial, threaded, threads);
    expect_per_sm_sums_to_total(threaded);
  }
}

TEST(EngineThreadSweep, L2SeesEveryAccessInGlobalCtaOrder) {
  // CTA c loads table lines c..c+7, so no SM loads a line twice (its
  // CTAs are 8 apart) and every load misses the L1 and reaches the L2.
  // A reference cache of the L2's geometry, fed those lines in global
  // CTA order — the order the launch replays the SMs' logs in — must
  // reproduce each SM's L2 hits, misses and DRAM bytes at every thread
  // count, over three replay epochs.
  constexpr int kGrid = 600;
  const gpusim::DeviceConfig hw = small_l2_config();
  const auto line_of = [](int cta, int k) {
    return static_cast<std::size_t>(cta + k) % kTableLines;
  };
  for (int threads : {1, 2, 8}) {
    gpusim::Device dev(hw);
    const auto table = make_table(dev);
    std::vector<gpusim::KernelStats> per_sm;
    gpusim::launch(
        dev, one_warp_launch(kGrid),
        [&](gpusim::Cta& cta) {
          gpusim::Lanes<std::uint32_t> v{};
          for (int k = 0; k < 8; ++k) {
            cta.warp(0).ldg_span(table.addr(line_of(cta.cta_id(), k) * 32), 4,
                                 v);
          }
        },
        gpusim::SimOptions{.threads = threads, .per_sm_stats = &per_sm});

    gpusim::SectorCache ref(hw.l2_bytes, hw.line_bytes, hw.sector_bytes,
                            hw.l2_ways);
    std::vector<gpusim::KernelStats> want(per_sm.size());
    for (int cta = 0; cta < kGrid; ++cta) {
      gpusim::KernelStats& w = want[static_cast<std::size_t>(cta % hw.num_sms)];
      for (int k = 0; k < 8; ++k) {
        const std::uint32_t hit_bits =
            ref.access_line(table.addr(line_of(cta, k) * 32), 0xFu);
        const auto hits = static_cast<std::uint64_t>(std::popcount(hit_bits));
        w.l2_sector_hits += hits;
        w.l2_sector_misses += 4 - hits;
        w.dram_read_bytes += 32 * (4 - hits);
      }
    }
    for (std::size_t sm = 0; sm < per_sm.size(); ++sm) {
      EXPECT_EQ(per_sm[sm].l1_sector_hits, 0u) << "sm " << sm;
      EXPECT_EQ(per_sm[sm].l2_sector_hits, want[sm].l2_sector_hits)
          << "sm " << sm << " threads=" << threads;
      EXPECT_EQ(per_sm[sm].l2_sector_misses, want[sm].l2_sector_misses)
          << "sm " << sm << " threads=" << threads;
      EXPECT_EQ(per_sm[sm].dram_read_bytes, want[sm].dram_read_bytes)
          << "sm " << sm << " threads=" << threads;
    }
  }
}

TEST(EngineThreadSweep, AbortedLaunchLeavesTheSerialL2AtEveryThreadCount) {
  // CTA 300 (second epoch, SM 4) throws halfway through its loads.  The
  // other SMs run past it to the end of the epoch, but the launch
  // replays only CTAs 0..300 (300's partial log included), so a probe
  // launch afterwards finds the L2 those CTAs leave in global order, at
  // every thread count.
  constexpr int kGrid = 600;
  constexpr int kThrowAt = 300;
  std::vector<SweepRun> probes;
  for (int threads : {1, 2, 8}) {
    gpusim::Device dev(small_l2_config());
    const auto table = make_table(dev);
    EXPECT_THROW(run_shared_table(dev, table, kGrid, kThrowAt, threads),
                 std::runtime_error);
    probes.push_back(probe_table(dev, table, threads));
  }
  EXPECT_GT(probes[0].total.l2_sector_hits, 0u);
  EXPECT_GT(probes[0].total.l2_sector_misses, 0u);
  for (std::size_t i = 1; i < probes.size(); ++i) {
    const int threads = i == 1 ? 2 : 8;
    expect_counters_thread_invariant(probes[0].total, probes[0].per_sm,
                                     probes[i].total, probes[i].per_sm,
                                     threads);
    EXPECT_EQ(probes[0].cycles, probes[i].cycles) << "threads=" << threads;
  }
}

TEST(EngineThreadSweep, AbortedLaunchIsThreadInvariant) {
  // A throw ends only its own SM's CTA list; every other SM still runs
  // its CTAs of the epoch, at one thread too.  So the error, the trace
  // and the fault plan's tallies an aborted launch leaves are the same
  // at every thread count.
  //
  // A runaway launch: every CTA spins on __syncthreads() until the
  // watchdog trips it, so each SM's first CTA times out.
  gpusim::LaunchConfig runaway;
  runaway.grid = 16;
  runaway.cta_threads = 64;
  std::vector<std::string> whats;
  std::vector<std::string> perfetto;
  std::vector<std::string> metrics;
  for (int threads : {1, 2, 8}) {
    gpusim::Device dev(test_config());
    gpusim::Trace trace;
    gpusim::SimOptions sim{.threads = threads, .watchdog_cta_ops = 1000};
    sim.trace.sink = &trace;
    try {
      gpusim::launch(
          dev, runaway,
          [](gpusim::Cta& cta) {
            for (;;) cta.sync();
          },
          sim);
      FAIL() << "runaway launch did not time out at threads=" << threads;
    } catch (const gpusim::LaunchTimeoutError& e) {
      whats.emplace_back(e.what());
    }
    perfetto.push_back(gpusim::perfetto_json(trace));
    metrics.push_back(gpusim::metrics_json(trace));
  }
  // Every SM's progress dump shows its CTA stopped by the watchdog.
  EXPECT_EQ(whats[0].find("ops_in_cta=0"), std::string::npos) << whats[0];
  for (std::size_t i = 1; i < whats.size(); ++i) {
    const int threads = i == 1 ? 2 : 8;
    EXPECT_EQ(whats[0], whats[i]) << "threads=" << threads;
    // Compared as booleans: a mismatch would print megabytes of JSON.
    EXPECT_TRUE(perfetto[0] == perfetto[i])
        << "perfetto export differs at threads=" << threads << " ("
        << perfetto[0].size() << " vs " << perfetto[i].size() << " bytes)";
    EXPECT_TRUE(metrics[0] == metrics[i])
        << "metrics export differs at threads=" << threads << " ("
        << metrics[0].size() << " vs " << metrics[i].size() << " bytes)";
  }

  // An ECC plan: a sticky double-bit upset in CTA 2's data (detected,
  // so the launch throws EccError) and a transient single-bit upset in
  // CTA 7's (corrected).  CTA 7 runs on SM 7 although CTA 2 throws.
  std::vector<std::string> ecc_whats;
  std::vector<std::array<std::uint64_t, 3>> tallies;
  for (int threads : {1, 2, 8}) {
    gpusim::FaultPlan plan(/*seed=*/1, /*ecc_enabled=*/true);
    gpusim::Device dev(test_config());
    auto data = dev.alloc<std::uint32_t>(16 * 32, "data");
    plan.add_target({gpusim::FaultSite::kDramRead, data.addr(2 * 32),
                     /*bit=*/0, /*n_bits=*/2, /*sticky=*/true});
    plan.add_target({gpusim::FaultSite::kDramRead, data.addr(7 * 32),
                     /*bit=*/0, /*n_bits=*/1, /*sticky=*/false});
    dev.set_fault_plan(&plan);
    try {
      gpusim::launch(
          dev, one_warp_launch(16),
          [&](gpusim::Cta& cta) {
            gpusim::Lanes<std::uint32_t> v{};
            cta.warp(0).ldg_span(
                data.addr(static_cast<std::size_t>(cta.cta_id()) * 32), 4, v);
          },
          gpusim::SimOptions{.threads = threads});
      FAIL() << "double-bit upset not detected at threads=" << threads;
    } catch (const gpusim::EccError& e) {
      ecc_whats.emplace_back(e.what());
    }
    tallies.push_back({plan.injected(), plan.masked(), plan.detected()});
  }
  EXPECT_EQ(tallies[0], (std::array<std::uint64_t, 3>{2, 1, 1}));
  for (std::size_t i = 1; i < tallies.size(); ++i) {
    const int threads = i == 1 ? 2 : 8;
    EXPECT_EQ(ecc_whats[0], ecc_whats[i]) << "threads=" << threads;
    EXPECT_EQ(tallies[0], tallies[i]) << "threads=" << threads;
  }
}

TEST(Scheduler, RoundRobinMatchesHistoricalAssignment) {
  gpusim::Scheduler sched(/*grid=*/19, /*num_sms=*/8);
  EXPECT_EQ(sched.num_active_sms(), 8);
  // Walking the SMs' lists visits every CTA exactly once, CTA c on SM
  // (c % 8), each list in increasing order.
  std::vector<int> home(19, -1);
  for (int sm = 0; sm < 8; ++sm) {
    int prev = -1;
    for (int cta = sched.first_cta(sm); cta < 19; cta += sched.cta_stride()) {
      EXPECT_EQ(home[static_cast<std::size_t>(cta)], -1)
          << "cta " << cta << " listed twice";
      home[static_cast<std::size_t>(cta)] = sm;
      EXPECT_GT(cta, prev);
      prev = cta;
    }
  }
  for (int cta = 0; cta < 19; ++cta) {
    EXPECT_EQ(home[static_cast<std::size_t>(cta)], cta % 8) << "cta " << cta;
  }
}

TEST(Scheduler, SmallGridActivatesOnlyGridSms) {
  gpusim::Scheduler sched(/*grid=*/3, /*num_sms=*/8);
  EXPECT_EQ(sched.num_active_sms(), 3);
  // Each active SM is claimed exactly once, then the cursor drains.
  std::vector<bool> claimed(3, false);
  for (int i = 0; i < 3; ++i) {
    const int sm = sched.next_sm();
    ASSERT_GE(sm, 0);
    ASSERT_LT(sm, 3);
    EXPECT_FALSE(claimed[static_cast<std::size_t>(sm)]);
    claimed[static_cast<std::size_t>(sm)] = true;
  }
  EXPECT_EQ(sched.next_sm(), -1);
  EXPECT_EQ(sched.next_sm(), -1);
}

// ---------------------------------------------------------------------
// Span-vs-per-lane equivalence corpus (DESIGN.md §2h): the descriptor
// forms must be bit- and counter-identical to the hand-expanded
// per-lane forms for uniform, affine, and segmented patterns — at one
// thread, across thread counts, and under fault injection (where
// ldg_span self-diverts onto the per-lane path and the smem spans keep
// their span path).

void expect_corpus_equal(const gpusim::SpanCorpusRun& span,
                         const gpusim::SpanCorpusRun& lane,
                         const char* what) {
  ASSERT_EQ(span.dst_bits.size(), lane.dst_bits.size());
  for (std::size_t i = 0; i < span.dst_bits.size(); ++i) {
    ASSERT_EQ(span.dst_bits[i], lane.dst_bits[i])
        << what << ": output half " << i << " differs";
  }
  EXPECT_TRUE(gpusim::counters_equal(span.total, lane.total))
      << what << ": merged counters differ\nspan:\n"
      << span.total.to_string() << "\nper-lane:\n" << lane.total.to_string();
  ASSERT_EQ(span.per_sm.size(), lane.per_sm.size());
  for (std::size_t sm = 0; sm < span.per_sm.size(); ++sm) {
    EXPECT_TRUE(gpusim::counters_equal(span.per_sm[sm], lane.per_sm[sm]))
        << what << ": per-SM counters differ on SM " << sm;
  }
}

TEST(SpanCorpus, BitAndCounterIdenticalToPerLaneSerial) {
  gpusim::Device dspan(test_config());
  gpusim::Device dlane(test_config());
  const auto span = run_span_corpus(dspan, true, {.threads = 1});
  const auto lane = run_span_corpus(dlane, false, {.threads = 1});
  expect_corpus_equal(span, lane, "serial");
}

TEST(SpanCorpus, ThreadInvariantAndEqualToPerLaneAtEveryThreadCount) {
  gpusim::Device dbase(test_config());
  const auto base = run_span_corpus(dbase, true, {.threads = 1});
  for (int threads : {2, 8}) {
    gpusim::Device dspan(test_config());
    gpusim::Device dlane(test_config());
    const auto span = run_span_corpus(dspan, true, {.threads = threads});
    const auto lane = run_span_corpus(dlane, false, {.threads = threads});
    expect_corpus_equal(span, lane, "threaded");
    // The span run itself honors the engine determinism contract:
    // outputs and every counter bit-equal to the serial run.
    ASSERT_EQ(base.dst_bits, span.dst_bits) << "threads=" << threads;
    expect_counters_thread_invariant(base.total, base.per_sm, span.total,
                                     span.per_sm, threads);
  }
}

TEST(SpanCorpus, EquivalentUnderFaultInjection) {
  // A fault plan makes ldg_span divert onto the per-lane path, where a
  // sticky DRAM-read upset inside the affine pattern's footprint
  // strikes; the smem spans keep their span path (no site strikes
  // shared memory).  Results and counters must still match the
  // hand-expanded run under the same plan.
  const auto run_faulted = [&](bool use_span, int threads) {
    gpusim::Device dev(test_config());
    gpusim::FaultPlan plan(7);
    gpusim::FaultTarget t;
    t.site = gpusim::FaultSite::kDramRead;
    // src halves are allocated first at a deterministic arena offset;
    // target a byte inside the affine pattern of CTA 0 (halves 32..71).
    t.addr = 0;  // patched below once the buffer exists
    // Allocate via the corpus itself: run once to learn the address,
    // then target it.  Addresses are deterministic per fresh device.
    gpusim::Device probe(test_config());
    const auto probed = run_span_corpus(probe, use_span, {.threads = 1});
    t.addr = probed.src_addr + 2 * 40;  // half #40: inside the prefix
    t.bit = 3;
    t.sticky = true;
    plan.add_target(t);
    dev.set_fault_plan(&plan);
    return run_span_corpus(dev, use_span, {.threads = threads});
  };
  const auto span = run_faulted(true, 1);
  const auto lane = run_faulted(false, 1);
  expect_corpus_equal(span, lane, "faulted");
  // The upset must actually have landed (the corpus reads half #40).
  gpusim::Device clean(test_config());
  const auto unfaulted = run_span_corpus(clean, true, {.threads = 1});
  EXPECT_NE(span.dst_bits, unfaulted.dst_bits);
  // Faulted runs are thread-invariant too, every counter included.
  for (int threads : {2, 8}) {
    const auto threaded = run_faulted(true, threads);
    ASSERT_EQ(span.dst_bits, threaded.dst_bits) << "threads=" << threads;
    expect_counters_thread_invariant(span.total, span.per_sm, threaded.total,
                                     threaded.per_sm, threads);
  }
}

}  // namespace
}  // namespace vsparse::kernels
