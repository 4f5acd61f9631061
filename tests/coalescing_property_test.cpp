// Parameterized property tests for the memory-system model — the
// machinery behind guideline V's numbers.  For strided warp accesses,
// the number of touched sectors has a closed form; the simulator must
// match it for every (element size, stride) combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/trace/counters.hpp"

namespace vsparse::gpusim {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.dram_capacity = 32 << 20;
  cfg.num_sms = 2;
  return cfg;
}

/// Expected unique 32 B sectors for 32 lanes of `width`-byte accesses
/// with byte stride `stride` from a 256-aligned base.
std::uint64_t expected_sectors(int width, int stride) {
  std::set<std::uint64_t> sectors;
  for (int lane = 0; lane < 32; ++lane) {
    sectors.insert(static_cast<std::uint64_t>(lane) * stride / 32);
  }
  (void)width;  // naturally aligned accesses never straddle sectors
  return sectors.size();
}

class CoalescingSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CoalescingSweep, SectorCountMatchesClosedForm) {
  const auto [width, stride_mult] = GetParam();
  const int stride = width * stride_mult;
  Device dev(small_config());
  auto buf = dev.alloc<std::uint8_t>(static_cast<std::size_t>(stride) * 64 +
                                     256);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane) *
                   static_cast<std::size_t>(stride));
    }
    switch (width) {
      case 2: {
        Lanes<half_t> d;
        w.ldg(addr, d);
        break;
      }
      case 4: {
        Lanes<float> d;
        w.ldg(addr, d);
        break;
      }
      case 8: {
        Lanes<half4> d;
        w.ldg(addr, d);
        break;
      }
      default: {
        Lanes<half8> d;
        w.ldg(addr, d);
        break;
      }
    }
  });
  EXPECT_EQ(s.global_load_sectors, expected_sectors(width, stride))
      << "width=" << width << " stride=" << stride;
  EXPECT_EQ(s.global_load_requests, 1u);
  // Every touched sector either hit or missed in L1.
  EXPECT_EQ(s.l1_sector_hits + s.l1_sector_misses, s.global_load_sectors);
  // And every L1 miss either hit or missed in L2 (conservation).
  EXPECT_EQ(s.l2_sector_hits + s.l2_sector_misses, s.l1_sector_misses);
  // Cold caches: everything misses all the way to DRAM.
  EXPECT_EQ(s.dram_read_bytes, s.global_load_sectors * 32);
}

INSTANTIATE_TEST_SUITE_P(
    WidthStride, CoalescingSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 16),
                       ::testing::Values(1, 2, 4, 8, 16)));

// Property: repeating any access pattern back-to-back hits 100% in L1
// (the working set of one warp request always fits).
class ReuseSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReuseSweep, ImmediateReuseAlwaysHits) {
  const int stride = GetParam();
  Device dev(small_config());
  auto buf = dev.alloc<std::uint8_t>(static_cast<std::size_t>(stride) * 64 +
                                     256);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<float> d;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane) *
                   static_cast<std::size_t>(stride));
    }
    w.ldg(addr, d);
    w.ldg(addr, d);
  });
  EXPECT_EQ(s.l1_sector_hits, s.global_load_sectors / 2) << stride;
}

INSTANTIATE_TEST_SUITE_P(Strides, ReuseSweep,
                         ::testing::Values(4, 16, 64, 256, 1024));

// Property: a randomly-generated batch of naturally-aligned accesses
// never reports more sectors than active lanes nor fewer than
// ceil(total unique bytes / 32).
TEST(CoalescingRandom, SectorBoundsHold) {
  Rng rng(99);
  Device dev(small_config());
  auto buf = dev.alloc<std::uint8_t>(1 << 20);
  LaunchConfig cfg;
  for (int trial = 0; trial < 200; ++trial) {
    KernelStats s = launch(dev, cfg, [&](Cta& cta) {
      Warp w = cta.warp(0);
      AddrLanes addr;
      Lanes<float> d;
      std::uint32_t mask = 0;
      int active = 0;
      for (int lane = 0; lane < 32; ++lane) {
        if (rng.bernoulli(0.7f)) {
          addr[static_cast<std::size_t>(lane)] =
              buf.addr(rng.uniform_u64((1 << 18)) * 4);
          mask |= 1u << lane;
          ++active;
        }
      }
      if (mask == 0) {
        addr[0] = buf.addr(0);
        mask = 1;
        active = 1;
      }
      w.ldg(addr, d, mask);
      EXPECT_LE(active, 32);
    });
    EXPECT_LE(s.global_load_sectors, 32u);
    EXPECT_GE(s.global_load_sectors, 1u);
  }
}


// ---- span ops vs per-lane ops vs the unbatched cache definition -------
//
// A seeded sweep over span shapes, strides, element sizes, masks and
// segment bases.  Each case runs one CTA that interleaves global and
// shared-memory loads and stores, once through the span ops and once
// through hand-expanded per-lane ops, on two identical devices: bytes
// and every counter must match, merged and per SM.  Strides above 32 B
// and holed masks sit outside the span ops' interval walk, so the case
// grid straddles the divert boundary.  The global traffic is also fed,
// one unique sector at a time in per-lane first-touch order, through
// reference SectorCaches: the unbatched definition that the warp ops'
// line batching must reproduce.  Both caches are tiny, so that the
// order of line touches shows up in evictions.

constexpr std::size_t kSweepMem = 32 << 10;   ///< global buffer bytes
constexpr std::size_t kSweepSmem = 16 << 10;  ///< CTA shared memory bytes

/// A 2-set x 2-way L1 and a 16-set x 2-way L2.
DeviceConfig sweep_config() {
  DeviceConfig cfg = small_config();
  cfg.l1_bytes = 512;
  cfg.l1_ways = 2;
  cfg.l2_bytes = 4 << 10;
  cfg.l2_ways = 2;
  return cfg;
}

struct SpanShape {
  int segs;
  int width;
};

enum class MaskKind : std::uint8_t { kFull, kPrefix, kHoled, kSingle, kEmpty };

/// Lane mask of one kind over the describable lanes of `shape`.
std::uint32_t make_mask(Rng& rng, MaskKind kind, SpanShape shape) {
  const int lanes = shape.segs * shape.width;
  const std::uint32_t full = lanes >= 32 ? kFullMask : (1u << lanes) - 1u;
  switch (kind) {
    case MaskKind::kFull:
      return full;
    case MaskKind::kPrefix: {
      std::uint32_t m = 0;
      for (int seg = 0; seg < shape.segs; ++seg) {
        const int n = 1 + static_cast<int>(rng.uniform_u64(
                              static_cast<std::uint64_t>(shape.width)));
        for (int t = 0; t < n; ++t) m |= 1u << (seg * shape.width + t);
      }
      return m;
    }
    case MaskKind::kHoled: {
      std::uint32_t m = 0;
      for (int l = 0; l < lanes; ++l) {
        if (rng.bernoulli(0.6f)) m |= 1u << l;
      }
      return m;
    }
    case MaskKind::kSingle:
      return 1u << rng.uniform_u64(static_cast<std::uint64_t>(lanes));
    case MaskKind::kEmpty:
      return 0;
  }
  return 0;
}

/// Segment bases (byte offsets, multiples of `size`) below 12 KiB:
/// disjoint byte ranges in ascending order, or overlapping ones — each
/// segment starting within a few elements of an earlier one, or
/// anywhere in a 512 B window — so that segments repeat, overlap, and
/// revisit a line after touching another.
std::vector<std::uint64_t> make_bases(Rng& rng, SpanShape shape,
                                      std::uint32_t stride, std::size_t size,
                                      bool overlapping) {
  std::vector<std::uint64_t> bases;
  std::uint64_t cursor = size * rng.uniform_u64(64);
  for (int seg = 0; seg < shape.segs; ++seg) {
    if (!overlapping) {
      bases.push_back(cursor);
      cursor += static_cast<std::uint64_t>(shape.width - 1) * stride + size +
                size * rng.uniform_u64(16);
    } else if (seg > 0 && rng.bernoulli(0.5f)) {
      bases.push_back(bases[rng.uniform_u64(bases.size())] +
                      size * rng.uniform_u64(4));
    } else {
      bases.push_back(cursor + size * rng.uniform_u64(512 / size));
    }
  }
  return bases;
}

/// One block of a case's CTA: a mask and the bases its five ops use.
struct SweepBlock {
  std::uint32_t mask;
  std::vector<std::uint64_t> load_base;   ///< global offsets, loads
  std::vector<std::uint64_t> store_base;  ///< global offsets, stores
  std::vector<std::uint32_t> smem_base;   ///< shared-memory offsets
};

/// A global request, hand-expanded, in issue order.
struct GlobalAccess {
  AddrLanes addr;
  std::uint32_t mask;
  bool store;
};

struct SweepRun {
  std::vector<std::uint8_t> mem;    ///< the global buffer afterwards
  std::vector<std::uint8_t> loads;  ///< every load's lane array, in order
  KernelStats total;
  std::vector<KernelStats> per_sm;
  std::vector<GlobalAccess> log;
};

/// Lane `l` of a segs x width span addresses
/// `origin + base[l / width] + (l % width) * stride`.
template <class A, class B>
Lanes<A> expand_lanes(SpanShape shape, std::uint32_t stride,
                      const std::vector<B>& base, A origin) {
  Lanes<A> out{};
  for (int l = 0; l < shape.segs * shape.width; ++l) {
    out[static_cast<std::size_t>(l)] =
        origin +
        static_cast<A>(base[static_cast<std::size_t>(l / shape.width)]) +
        static_cast<A>(l % shape.width) * static_cast<A>(stride);
  }
  return out;
}

/// Run a case's blocks in one CTA, through the span ops or through
/// hand-expanded per-lane ops.  Each block loads a span, stores the
/// values to shared memory and loads them back, stores them to global
/// memory over the loaded region, and loads the first span again.
template <class V>
SweepRun run_sweep(bool use_span, SpanShape shape, std::uint32_t stride,
                   const std::vector<SweepBlock>& blocks,
                   const std::vector<std::uint8_t>& init) {
  Device dev(sweep_config());
  auto mem = dev.alloc_copy<std::uint8_t>(init, "sweep_mem");
  SweepRun run;
  LaunchConfig cfg;
  cfg.cta_threads = 32;
  cfg.smem_bytes = kSweepSmem;
  SimOptions sim;
  sim.threads = 1;
  sim.per_sm_stats = &run.per_sm;
  const int segs = shape.segs;
  const int width = shape.width;
  run.total = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    const auto global_base = [&](const std::vector<std::uint64_t>& off) {
      std::vector<std::uint64_t> abs;
      for (std::uint64_t o : off) abs.push_back(mem.addr() + o);
      return abs;
    };
    const auto record = [&](const Lanes<V>& d) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(d.data());
      run.loads.insert(run.loads.end(), p, p + sizeof(d));
    };
    const auto ldg = [&](const std::vector<std::uint64_t>& off,
                         std::uint32_t mask) {
      Lanes<V> d;
      std::memset(d.data(), 0xA5, sizeof(d));
      const std::vector<std::uint64_t> base = global_base(off);
      const AddrLanes addr = expand_lanes(shape, stride, off, mem.addr());
      if (use_span) {
        w.ldg_span(base.data(), segs, width, stride, d, mask);
      } else {
        w.ldg(addr, d, mask);
      }
      run.log.push_back({addr, mask, false});
      record(d);
      return d;
    };
    for (const SweepBlock& b : blocks) {
      const Lanes<V> v = ldg(b.load_base, b.mask);
      const Lanes<std::uint32_t> off =
          expand_lanes(shape, stride, b.smem_base, std::uint32_t{0});
      Lanes<V> r;
      std::memset(r.data(), 0x5A, sizeof(r));
      if (use_span) {
        w.sts_span(b.smem_base.data(), segs, width, stride, v, b.mask);
        w.lds_span(b.smem_base.data(), segs, width, stride, r, b.mask);
      } else {
        w.sts(off, v, b.mask);
        w.lds(off, r, b.mask);
      }
      record(r);
      const AddrLanes addr =
          expand_lanes(shape, stride, b.store_base, mem.addr());
      if (use_span) {
        const std::vector<std::uint64_t> base = global_base(b.store_base);
        w.stg_span(base.data(), segs, width, stride, r, b.mask);
      } else {
        w.stg(addr, r, b.mask);
      }
      run.log.push_back({addr, b.mask, true});
      ldg(b.load_base, b.mask);
    }
  }, sim);
  const auto host = mem.host();
  run.mem.assign(host.begin(), host.end());
  return run;
}

/// The global counters of `log` by definition: each request's unique
/// sectors in per-lane first-touch order, one at a time, through a cold
/// L1 (loads probe it, stores invalidate it) and, for L1 misses and
/// stores, a cold L2.
KernelStats unbatched_reference(const std::vector<GlobalAccess>& log,
                                const DeviceConfig& cfg) {
  SectorCache l1(cfg.l1_bytes, cfg.line_bytes, cfg.sector_bytes, cfg.l1_ways);
  SectorCache l2(cfg.l2_bytes, cfg.line_bytes, cfg.sector_bytes, cfg.l2_ways);
  const auto line_mask = static_cast<std::uint64_t>(cfg.line_bytes) - 1;
  KernelStats s;
  const auto to_l2 = [&](std::uint64_t sec, bool store) {
    if (l2.access(sec)) {
      ++s.l2_sector_hits;
    } else {
      ++s.l2_sector_misses;
      (store ? s.dram_write_bytes : s.dram_read_bytes) += 32;
    }
  };
  for (const GlobalAccess& a : log) {
    if (a.mask == 0) continue;
    std::vector<std::uint64_t> sectors;
    for (int l = 0; l < 32; ++l) {
      if (!(a.mask & (1u << l))) continue;
      const std::uint64_t sec =
          a.addr[static_cast<std::size_t>(l)] & ~std::uint64_t{31};
      if (std::find(sectors.begin(), sectors.end(), sec) == sectors.end()) {
        sectors.push_back(sec);
      }
    }
    (a.store ? s.global_store_sectors : s.global_load_sectors) +=
        sectors.size();
    for (std::uint64_t sec : sectors) {
      if (a.store) {
        l1.invalidate_line(sec & ~line_mask, 1u << ((sec & line_mask) >> 5));
        to_l2(sec, true);
      } else if (l1.access(sec)) {
        ++s.l1_sector_hits;
      } else {
        ++s.l1_sector_misses;
        to_l2(sec, false);
      }
    }
  }
  return s;
}

template <class V>
void span_sweep(Rng& rng) {
  constexpr std::uint32_t size = sizeof(V);
  const SpanShape shapes[] = {{1, 32}, {2, 16}, {4, 8},
                              {8, 4},  {3, 8},  {32, 1}};
  const std::uint32_t strides[] = {0, size, 32, 48, 64, 256};
  const MaskKind kinds[] = {MaskKind::kFull, MaskKind::kPrefix,
                            MaskKind::kHoled, MaskKind::kSingle,
                            MaskKind::kEmpty};
  std::vector<std::uint8_t> init(kSweepMem);
  for (std::uint8_t& x : init) {
    x = static_cast<std::uint8_t>(rng.uniform_u64(256));
  }
  for (const SpanShape shape : shapes) {
    for (const std::uint32_t stride : strides) {
      for (const bool overlapping : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "size=" << size << " segs=" << shape.segs
                     << " width=" << shape.width << " stride=" << stride
                     << " overlapping=" << overlapping);
        std::vector<SweepBlock> blocks;
        for (int round = 0; round < 2; ++round) {
          for (const MaskKind kind : kinds) {
            SweepBlock b;
            b.mask = make_mask(rng, kind, shape);
            b.load_base = make_bases(rng, shape, stride, size, overlapping);
            b.store_base = make_bases(rng, shape, stride, size, overlapping);
            for (std::uint64_t o :
                 make_bases(rng, shape, stride, size, overlapping)) {
              b.smem_base.push_back(static_cast<std::uint32_t>(o));
            }
            blocks.push_back(std::move(b));
          }
        }
        const SweepRun span = run_sweep<V>(true, shape, stride, blocks, init);
        const SweepRun lane = run_sweep<V>(false, shape, stride, blocks, init);
        EXPECT_EQ(span.mem, lane.mem);
        EXPECT_EQ(span.loads, lane.loads);
        EXPECT_TRUE(counters_equal(span.total, lane.total));
        ASSERT_EQ(span.per_sm.size(), lane.per_sm.size());
        for (std::size_t sm = 0; sm < span.per_sm.size(); ++sm) {
          EXPECT_TRUE(counters_equal(span.per_sm[sm], lane.per_sm[sm]))
              << "sm " << sm;
        }
        const KernelStats ref = unbatched_reference(lane.log, sweep_config());
        for (const KernelStats* run : {&span.total, &lane.total}) {
          EXPECT_EQ(run->global_load_sectors, ref.global_load_sectors);
          EXPECT_EQ(run->global_store_sectors, ref.global_store_sectors);
          EXPECT_EQ(run->l1_sector_hits, ref.l1_sector_hits);
          EXPECT_EQ(run->l1_sector_misses, ref.l1_sector_misses);
          EXPECT_EQ(run->l2_sector_hits, ref.l2_sector_hits);
          EXPECT_EQ(run->l2_sector_misses, ref.l2_sector_misses);
          EXPECT_EQ(run->dram_read_bytes, ref.dram_read_bytes);
          EXPECT_EQ(run->dram_write_bytes, ref.dram_write_bytes);
        }
      }
    }
  }
}

TEST(SpanSweep, SpanEqualsPerLaneAndUnbatchedReference) {
  Rng rng(2021);
  span_sweep<std::uint16_t>(rng);
  span_sweep<std::uint32_t>(rng);
  span_sweep<std::uint64_t>(rng);
  span_sweep<std::array<std::uint32_t, 4>>(rng);
}

// ---- bank-conflict degree against an independent count ----------------
//
// A shared-memory load costs (distinct 4 B words in its busiest bank)
// wavefronts, twice that for 16 B elements; each active lane's first
// word stands for its access.  SpanSweep cannot see a wrong bank scan,
// because the span and per-lane ops share it, so this sweep checks
// `smem_wavefronts` of lds and lds_span against a count written here
// from the definition: a quadratic pass over the active lanes' words.

/// Distinct words in the busiest bank, over the active lanes of `off`.
std::uint64_t reference_bank_degree(const Lanes<std::uint32_t>& off,
                                    std::uint32_t mask) {
  std::vector<std::uint32_t> words;
  for (int l = 0; l < 32; ++l) {
    if (!(mask & (1u << l))) continue;
    const std::uint32_t word = off[static_cast<std::size_t>(l)] / 4;
    if (std::find(words.begin(), words.end(), word) == words.end()) {
      words.push_back(word);
    }
  }
  std::uint64_t degree = 1;
  for (std::uint32_t bank = 0; bank < 32; ++bank) {
    const auto n = static_cast<std::uint64_t>(
        std::count_if(words.begin(), words.end(),
                      [&](std::uint32_t w) { return w % 32 == bank; }));
    degree = std::max(degree, n);
  }
  return degree;
}

/// One shared-memory load: a segs x width span, or (segs == 0) the
/// per-lane offsets in `lanes`.
struct BankCase {
  int segs = 0;
  int width = 0;
  std::uint32_t stride = 0;
  std::vector<std::uint32_t> seg_off;
  Lanes<std::uint32_t> lanes{};
  std::uint32_t mask = 0;
};

constexpr std::uint32_t kBankSmem = 8 << 10;  ///< CTA shared memory bytes

/// Runs every case of `cases` as one load of V in one CTA, through
/// lds_span (span cases, and per-lane cases as lds), and through lds
/// on the expanded lanes; checks each load's wavefronts against the
/// reference degree.
template <class V>
void check_bank_degrees(const std::vector<BankCase>& cases) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.smem_bytes = kBankSmem;
  constexpr std::uint64_t kWidthFactor = sizeof(V) == 16 ? 2 : 1;
  launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    const auto wavefronts = [&](auto&& load) {
      const std::uint64_t before = cta.stats().smem_wavefronts;
      load();
      return cta.stats().smem_wavefronts - before;
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const BankCase& c = cases[i];
      Lanes<std::uint32_t> off = c.lanes;
      if (c.segs > 0) {
        off = expand_lanes(SpanShape{c.segs, c.width}, c.stride, c.seg_off,
                           std::uint32_t{0});
      }
      const std::uint64_t want =
          c.mask == 0 ? 0 : reference_bank_degree(off, c.mask) * kWidthFactor;
      SCOPED_TRACE(::testing::Message()
                   << "case " << i << " size=" << sizeof(V) << " segs="
                   << c.segs << " width=" << c.width << " stride=" << c.stride
                   << " mask=" << std::hex << c.mask);
      Lanes<V> d;
      EXPECT_EQ(wavefronts([&] { w.lds(off, d, c.mask); }), want);
      if (c.segs > 0) {
        EXPECT_EQ(wavefronts([&] {
                    w.lds_span(c.seg_off.data(), c.segs, c.width, c.stride, d,
                               c.mask);
                  }),
                  want);
      }
    }
  });
}

/// The seeded case list for elements of `size` bytes: random and
/// single-bank per-lane offsets, repeated words, and spans over every
/// segment count, stride and mask kind, with duplicate, overlapping and
/// clamped segment offsets; then the B-fragment gather of Blocked-ELL
/// and the dense GEMM.
std::vector<BankCase> bank_cases(Rng& rng, std::uint32_t size) {
  std::vector<BankCase> cases;
  const auto elem_off = [&](std::uint32_t limit) {
    return size * static_cast<std::uint32_t>(rng.uniform_u64(limit / size));
  };
  const MaskKind kinds[] = {MaskKind::kFull, MaskKind::kPrefix,
                            MaskKind::kHoled, MaskKind::kSingle,
                            MaskKind::kEmpty};
  // Per-lane: offsets anywhere, offsets from a small pool of words
  // (repeats), and 32 distinct words of one bank.
  for (int trial = 0; trial < 40; ++trial) {
    for (const MaskKind kind : kinds) {
      BankCase c;
      c.mask = make_mask(rng, kind, SpanShape{1, 32});
      std::uint32_t pool[4];
      for (std::uint32_t& p : pool) p = elem_off(kBankSmem - 16);
      for (std::uint32_t& o : c.lanes) {
        o = trial % 2 == 0 ? elem_off(kBankSmem - 16) : pool[rng.uniform_u64(4)];
      }
      cases.push_back(c);
    }
  }
  for (const std::uint32_t bank_stride : {128u, 256u}) {
    BankCase c;
    c.mask = kFullMask;
    for (int l = 0; l < 32; ++l) {
      c.lanes[static_cast<std::size_t>(l)] =
          (static_cast<std::uint32_t>(l) * bank_stride) % (kBankSmem - 16);
    }
    cases.push_back(c);
  }
  // Spans.
  const std::uint32_t strides[] = {0, 2, 4, 8, 16, 32, 64, 128};
  for (int segs = 1; segs <= 8; ++segs) {
    const int max_width = 32 / segs;
    for (const std::uint32_t stride : strides) {
      for (const MaskKind kind : kinds) {
        for (int bases = 0; bases < 4; ++bases) {
          BankCase c;
          c.segs = segs;
          c.width = bases == 0 ? max_width
                               : 1 + static_cast<int>(rng.uniform_u64(
                                         static_cast<std::uint64_t>(max_width)));
          c.stride = stride;
          c.mask = make_mask(rng, kind, SpanShape{segs, c.width});
          std::uint32_t limit =
              kBankSmem - 16 - stride * static_cast<std::uint32_t>(c.width);
          limit -= limit % size;
          for (int seg = 0; seg < segs; ++seg) {
            std::uint32_t o = elem_off(limit);
            if (seg > 0 && bases == 1) {  // duplicate an earlier segment
              o = c.seg_off[rng.uniform_u64(c.seg_off.size())];
            } else if (seg > 0 && bases == 2) {  // overlap an earlier one
              o = std::min(c.seg_off[rng.uniform_u64(c.seg_off.size())] +
                               size * static_cast<std::uint32_t>(
                                          rng.uniform_u64(4)),
                           limit);
            } else if (seg > 0 && bases == 3 && rng.bernoulli(0.5f)) {
              o = c.seg_off.back();  // clamped: repeat the last row
            }
            c.seg_off.push_back(o);
          }
          cases.push_back(c);
        }
      }
    }
  }
  // The B-fragment gather: eight 4-lane segments, one per B row (256 B
  // apart, clamped at blk - 1), lanes 16 B apart, per 32-column tile.
  for (const int blk : {2, 4, 8, 16}) {
    for (std::uint32_t ct = 0; ct < 4; ++ct) {
      for (int pass = 0; pass < 2; ++pass) {
        BankCase c;
        c.segs = 8;
        c.width = 4;
        c.stride = 16;
        c.mask = kFullMask;
        for (int seg = 0; seg < 8; ++seg) {
          const int r = std::min(8 * pass + seg, blk - 1);
          c.seg_off.push_back(static_cast<std::uint32_t>(blk * blk * 2 + r * 256) +
                              64 * ct);
        }
        cases.push_back(c);
      }
    }
  }
  return cases;
}

TEST(BankDegree, MatchesDistinctWordsPerBankCount) {
  Rng rng(1877);
  check_bank_degrees<std::uint16_t>(bank_cases(rng, 2));
  check_bank_degrees<std::uint32_t>(bank_cases(rng, 4));
  check_bank_degrees<std::uint64_t>(bank_cases(rng, 8));
  check_bank_degrees<std::array<std::uint32_t, 4>>(bank_cases(rng, 16));
}

}  // namespace
}  // namespace vsparse::gpusim
