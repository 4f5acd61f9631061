// Thread-count sweep for the sharded execution engine: the same
// kernel launched with 1, 2, and 8 host threads must produce
// bit-identical functional results and bit-identical per-SM counters
// (the determinism contract of engine/launch.hpp).  Also covers the
// Scheduler's round-robin assignment, the counter-preserving L2
// slicing, SimOptions inheritance from the device, and exception
// propagation out of worker threads (the lowest throwing CTA's error,
// at any thread count).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/scheduler.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
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
  run.total = spmm_octet(dev, a, b, c, {}, sim).stats;
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
  run.total = sddmm_octet(dev, a, b, mask, out, {}, sim).stats;
  for (half_t h : out.host()) run.out_bits.push_back(h.bits());
  return run;
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
  ASSERT_EQ(base.per_sm.size(), run.per_sm.size());
  for (std::size_t sm = 0; sm < base.per_sm.size(); ++sm) {
    EXPECT_TRUE(base.per_sm[sm].sm_local_equal(run.per_sm[sm]))
        << "per-SM counters differ on SM " << sm << " at threads=" << threads
        << "\nserial:\n"
        << base.per_sm[sm].to_string() << "\nthreaded:\n"
        << run.per_sm[sm].to_string();
  }
  EXPECT_TRUE(base.total.sm_local_equal(run.total))
      << "merged SM-local counters differ at threads=" << threads;
  // The L2 hit/miss *split* may shift under concurrent interleaving,
  // but every L1 miss reaches the L2 exactly once, so the sum cannot.
  EXPECT_EQ(base.total.l2_sector_hits + base.total.l2_sector_misses,
            run.total.l2_sector_hits + run.total.l2_sector_misses);
}

/// Per-SM blocks must sum to the merged total on the SM-local fields.
void expect_per_sm_sums_to_total(const SweepRun& run) {
  gpusim::KernelStats sum;
  for (const auto& sm : run.per_sm) sum += sm;
  EXPECT_TRUE(sum.sm_local_equal(run.total));
  EXPECT_EQ(sum.l2_sector_hits, run.total.l2_sector_hits);
  EXPECT_EQ(sum.l2_sector_misses, run.total.l2_sector_misses);
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
  // the launch must still raise CTA 5's, as the serial path does.
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

TEST(Scheduler, RoundRobinMatchesHistoricalAssignment) {
  gpusim::Scheduler sched(/*grid=*/19, /*num_sms=*/8);
  EXPECT_EQ(sched.num_active_sms(), 8);
  for (int cta = 0; cta < 19; ++cta) EXPECT_EQ(sched.sm_of(cta), cta % 8);
  // Walking one SM's list visits exactly the CTAs whose home it is,
  // in increasing order.
  for (int sm = 0; sm < 8; ++sm) {
    int prev = -1;
    for (int cta = sched.first_cta(sm); cta < 19; cta += sched.cta_stride()) {
      EXPECT_EQ(sched.sm_of(cta), sm);
      EXPECT_GT(cta, prev);
      prev = cta;
    }
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

TEST(ShardedCache, SerialStreamMatchesSectorCacheForAnySliceCount) {
  // The L2 slicing is counter-preserving: on a serial access stream
  // the hit/miss outcome sequence is bit-identical to the unsliced
  // model for every slice count, because the set mapping is unchanged
  // and LRU order only ever compares lines within one set.
  constexpr std::size_t kCapacity = 32 << 10;
  constexpr int kLine = 128, kSector = 32, kWays = 4;

  Rng rng(42);
  std::vector<std::uint64_t> stream(20000);
  for (auto& addr : stream) {
    // ~4x the cache capacity so the stream forces evictions.
    addr = static_cast<std::uint64_t>(rng.uniform_int(0, 4096)) * kSector;
  }

  gpusim::SectorCache ref(kCapacity, kLine, kSector, kWays);
  std::vector<bool> want;
  want.reserve(stream.size());
  for (std::uint64_t addr : stream) want.push_back(ref.access(addr));

  for (int slices : {1, 2, 7, 16}) {
    gpusim::ShardedCache l2(kCapacity, kLine, kSector, kWays, slices);
    EXPECT_EQ(l2.num_slices(), slices);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(l2.access(stream[i]), want[i])
          << "access " << i << " with " << slices << " slices";
    }
  }
}

TEST(ShardedCache, InvalidateSectorMatchesSectorCache) {
  constexpr std::size_t kCapacity = 8 << 10;
  constexpr int kLine = 128, kSector = 32, kWays = 2;

  Rng rng(5);
  gpusim::SectorCache ref(kCapacity, kLine, kSector, kWays);
  gpusim::ShardedCache l2(kCapacity, kLine, kSector, kWays, 7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr =
        static_cast<std::uint64_t>(rng.uniform_int(0, 512)) * kSector;
    if (rng.uniform_int(0, 4) == 0) {
      ref.invalidate_sector(addr);
      l2.invalidate_sector(addr);
    } else {
      ASSERT_EQ(l2.access(addr), ref.access(addr)) << "access " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Span-vs-per-lane equivalence corpus (DESIGN.md §2h): the descriptor
// forms must be bit- and counter-identical to the hand-expanded
// per-lane forms for uniform, affine, and segmented patterns — on the
// serial engine, across thread counts, and under fault injection
// (where spans self-divert onto the per-lane path).

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
    // outputs and per-SM counters bit-equal to the serial run.
    ASSERT_EQ(base.dst_bits, span.dst_bits) << "threads=" << threads;
    ASSERT_EQ(base.per_sm.size(), span.per_sm.size());
    for (std::size_t sm = 0; sm < base.per_sm.size(); ++sm) {
      EXPECT_TRUE(base.per_sm[sm].sm_local_equal(span.per_sm[sm]))
          << "per-SM counters differ on SM " << sm << " at threads="
          << threads;
    }
  }
}

TEST(SpanCorpus, EquivalentUnderFaultInjection) {
  // A sticky DRAM-read upset inside the affine pattern's footprint
  // forces every span op to divert onto the per-lane path; results and
  // counters must still match the hand-expanded run under the same
  // plan.
  const auto run_faulted = [&](bool use_span) {
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
    return run_span_corpus(dev, use_span, {.threads = 1});
  };
  const auto span = run_faulted(true);
  const auto lane = run_faulted(false);
  expect_corpus_equal(span, lane, "faulted");
  // The upset must actually have landed (the corpus reads half #40).
  gpusim::Device clean(test_config());
  const auto unfaulted = run_span_corpus(clean, true, {.threads = 1});
  EXPECT_NE(span.dst_bits, unfaulted.dst_bits);
}

}  // namespace
}  // namespace vsparse::kernels
