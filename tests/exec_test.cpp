// Tests for the device arena, launch engine, and warp memory ops —
// including the coalescing/sector accounting the paper's guideline V
// analysis depends on.
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/sanitizer/report.hpp"

namespace vsparse::gpusim {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.dram_capacity = 16 << 20;
  cfg.num_sms = 4;
  return cfg;
}

TEST(Device, AllocAlignmentAndZeroing) {
  Device dev(small_config());
  auto a = dev.alloc<float>(10);
  auto b = dev.alloc<float>(10);
  EXPECT_EQ(a.addr() % 256, 0u);
  EXPECT_EQ(b.addr() % 256, 0u);
  EXPECT_NE(a.addr(), b.addr());
  for (float v : a.host()) EXPECT_EQ(v, 0.0f);
}

TEST(Device, HostViewRoundTrip) {
  Device dev(small_config());
  std::vector<int> src(100);
  std::iota(src.begin(), src.end(), 0);
  auto buf = dev.alloc_copy<int>(src);
  auto view = buf.host();
  EXPECT_EQ(view[42], 42);
  view[42] = -1;
  EXPECT_EQ(buf.host()[42], -1);
}

TEST(Device, PeakMemoryAccounting) {
  Device dev(small_config());
  auto a = dev.alloc<std::uint8_t>(1000);
  EXPECT_EQ(dev.live_bytes(), 1000u);
  auto b = dev.alloc<std::uint8_t>(500);
  EXPECT_EQ(dev.live_bytes(), 1500u);
  EXPECT_EQ(dev.peak_bytes(), 1500u);
  dev.free(a);
  EXPECT_EQ(dev.live_bytes(), 500u);
  EXPECT_EQ(dev.peak_bytes(), 1500u);  // peak sticks
  dev.free(b);
  EXPECT_EQ(dev.live_bytes(), 0u);
  EXPECT_THROW(dev.free(b), CheckError);  // double free detected
}

TEST(Device, ZeroByteAllocationsKeepTheirOwnRecords) {
  Device dev(small_config());
  auto z = dev.alloc<int>(0, "z");
  auto b = dev.alloc<std::uint16_t>(1024, "b");
  EXPECT_NE(z.addr(), b.addr());
  const std::vector<AllocRecord> snapshot = dev.allocation_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "z");
  EXPECT_EQ(snapshot[1].name, "b");
  EXPECT_EQ(snapshot[1].bytes, 2048u);

  // A sanitized load from the second buffer is charged to its own
  // record, not to the empty one below it.
  Sanitizer sink;
  SimOptions sim;
  sim.sanitize.sink = &sink;
  LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = 32;
  const std::uint64_t last = b.addr(b.size() - 1);
  launch(dev, cfg, [last](Cta& cta) {
    AddrLanes addr{};
    addr[0] = last;
    Lanes<std::uint16_t> dst{};
    cta.warp(0).ldg(addr, dst, 0x1u);
  }, sim);
  EXPECT_EQ(sink.num_launches(), 1u);
  EXPECT_EQ(sink.num_reports(), 0u);

  dev.free(b);
  dev.free(z);
  EXPECT_EQ(dev.live_bytes(), 0u);
}

TEST(Device, OutOfBoundsTranslateThrows) {
  Device dev(small_config());
  auto a = dev.alloc<float>(4);
  EXPECT_NO_THROW(dev.translate(a.addr(), 16));
  EXPECT_THROW(dev.translate(a.addr() + (16 << 20), 4), CheckError);
}

TEST(Device, ExhaustionThrows) {
  DeviceConfig cfg = small_config();
  cfg.dram_capacity = 1 << 10;
  Device dev(cfg);
  EXPECT_THROW(dev.alloc<std::uint8_t>(2048), Error);  // kOutOfMemory
}

TEST(Launch, ValidatesConfig) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.grid = 0;
  EXPECT_THROW(launch(dev, cfg, [](Cta&) {}), CheckError);
  cfg.grid = 1;
  cfg.cta_threads = 33;
  EXPECT_THROW(launch(dev, cfg, [](Cta&) {}), CheckError);
  cfg.cta_threads = 2048;
  EXPECT_THROW(launch(dev, cfg, [](Cta&) {}), CheckError);
  cfg.cta_threads = 32;
  cfg.smem_bytes = 1 << 20;
  EXPECT_THROW(launch(dev, cfg, [](Cta&) {}), CheckError);
}

TEST(Launch, CtaIdentityAndSmRoundRobin) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.grid = 9;
  std::vector<int> sm_of_cta(9, -1);
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    sm_of_cta[static_cast<std::size_t>(cta.cta_id())] = cta.sm_id();
    EXPECT_EQ(cta.num_ctas(), 9);
  });
  EXPECT_EQ(s.ctas_launched, 9u);
  EXPECT_EQ(s.warps_launched, 9u);
  EXPECT_EQ(sm_of_cta[0], 0);
  EXPECT_EQ(sm_of_cta[4], 0);  // 4 SMs -> CTA 4 wraps to SM 0
  EXPECT_EQ(sm_of_cta[5], 1);
}

TEST(WarpMemory, LdgMovesDataAndCountsWidth) {
  Device dev(small_config());
  std::vector<float> src(32);
  std::iota(src.begin(), src.end(), 100.0f);
  auto buf = dev.alloc_copy<float>(src);

  LaunchConfig cfg;
  Lanes<float> got{};
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane));
    }
    w.ldg(addr, got);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              100.0f + static_cast<float>(lane));
  }
  EXPECT_EQ(s.op(Op::kLdg), 1u);
  EXPECT_EQ(s.ldg32, 1u);
  EXPECT_EQ(s.global_load_requests, 1u);
  // 32 lanes x 4 B contiguous = 128 B = 4 sectors: perfectly coalesced.
  EXPECT_EQ(s.global_load_sectors, 4u);
}

TEST(WarpMemory, Ldg128Coalescing) {
  // 32 lanes each loading 16 B contiguously = 512 B = 16 sectors.
  Device dev(small_config());
  auto buf = dev.alloc<half8>(64);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<half8> dst;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane));
    }
    w.ldg(addr, dst);
  });
  EXPECT_EQ(s.ldg128, 1u);
  EXPECT_EQ(s.global_load_sectors, 16u);
  EXPECT_DOUBLE_EQ(s.sectors_per_request(), 16.0);
}

TEST(WarpMemory, StridedAccessWastesSectors) {
  // 32 lanes each loading 2 B with a 32 B stride touch 32 distinct
  // sectors — the uncoalesced pattern guideline V warns about.
  Device dev(small_config());
  auto buf = dev.alloc<half_t>(1024);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<half_t> dst;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane) * 16);
    }
    w.ldg(addr, dst);
  });
  EXPECT_EQ(s.ldg16, 1u);
  EXPECT_EQ(s.global_load_sectors, 32u);
}

TEST(WarpMemory, BroadcastLoadIsSingleSector) {
  Device dev(small_config());
  auto buf = dev.alloc<float>(8);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<float> dst;
    addr.fill(buf.addr());
    w.ldg(addr, dst);
  });
  EXPECT_EQ(s.global_load_sectors, 1u);
}

TEST(WarpMemory, PredicatedLanesDoNotTouchMemory) {
  Device dev(small_config());
  auto buf = dev.alloc<float>(32);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr{};  // lane 0 valid; others would be OOB if active
    addr[0] = buf.addr();
    for (int lane = 1; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] = 1 << 30;  // way out of bounds
    }
    Lanes<float> dst{};
    w.ldg(addr, dst, 0x1u);
  });
  EXPECT_EQ(s.global_load_sectors, 1u);
}

TEST(WarpMemory, L1HitsOnReuse) {
  Device dev(small_config());
  auto buf = dev.alloc<float>(32);
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<float> dst;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane));
    }
    w.ldg(addr, dst);
    w.ldg(addr, dst);
  });
  EXPECT_EQ(s.l1_sector_misses, 4u);
  EXPECT_EQ(s.l1_sector_hits, 4u);
  EXPECT_EQ(s.dram_read_bytes, 128u);
}

TEST(WarpMemory, L1FlushedBetweenLaunchesL2Persists) {
  Device dev(small_config());
  auto buf = dev.alloc<float>(32);
  LaunchConfig cfg;
  auto body = [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    Lanes<float> dst;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane));
    }
    w.ldg(addr, dst);
  };
  launch(dev, cfg, body);
  KernelStats s2 = launch(dev, cfg, body);
  EXPECT_EQ(s2.l1_sector_misses, 4u);  // L1 was invalidated
  EXPECT_EQ(s2.l2_sector_hits, 4u);    // but L2 kept the data
  EXPECT_EQ(s2.dram_read_bytes, 0u);
}

TEST(WarpMemory, StoreVisibleToSubsequentLoad) {
  Device dev(small_config());
  auto buf = dev.alloc<float>(32);
  LaunchConfig cfg;
  Lanes<float> got{};
  launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    AddrLanes addr;
    for (int lane = 0; lane < 32; ++lane) {
      addr[static_cast<std::size_t>(lane)] =
          buf.addr(static_cast<std::size_t>(lane));
    }
    Lanes<float> vals;
    for (int lane = 0; lane < 32; ++lane) {
      vals[static_cast<std::size_t>(lane)] = static_cast<float>(lane * 2);
    }
    w.ldg(addr, got);  // pull into L1 first to exercise store coherence
    w.stg(addr, vals);
    w.ldg(addr, got);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)], static_cast<float>(lane * 2));
  }
  EXPECT_EQ(buf.host()[5], 10.0f);
}

TEST(SharedMemory, RoundTripAndCounters) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.smem_bytes = 4096;
  Lanes<float> got{};
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    Lanes<std::uint32_t> off;
    Lanes<float> vals;
    for (int lane = 0; lane < 32; ++lane) {
      off[static_cast<std::size_t>(lane)] = static_cast<std::uint32_t>(lane) * 4;
      vals[static_cast<std::size_t>(lane)] = static_cast<float>(lane) + 0.5f;
    }
    w.sts(off, vals);
    cta.sync();
    w.lds(off, got);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(lane)],
              static_cast<float>(lane) + 0.5f);
  }
  EXPECT_EQ(s.op(Op::kSts), 1u);
  EXPECT_EQ(s.op(Op::kLds), 1u);
  EXPECT_EQ(s.op(Op::kBar), 1u);
  // Conflict-free: one word per bank -> one wavefront each way.
  EXPECT_EQ(s.smem_wavefronts, 2u);
}

TEST(SharedMemory, BankConflictsExpandWavefronts) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.smem_bytes = 8192;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    Lanes<std::uint32_t> off;
    Lanes<float> dst;
    // All 32 lanes read different words in the same bank (stride 128 B).
    for (int lane = 0; lane < 32; ++lane) {
      off[static_cast<std::size_t>(lane)] =
          static_cast<std::uint32_t>(lane) * 128;
    }
    w.lds(off, dst);
  });
  EXPECT_EQ(s.smem_wavefronts, 32u);
}

TEST(SharedMemory, SameWordBroadcastsWithoutConflict) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.smem_bytes = 1024;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    Lanes<std::uint32_t> off;
    off.fill(64);
    Lanes<float> dst;
    w.lds(off, dst);
  });
  EXPECT_EQ(s.smem_wavefronts, 1u);
}

TEST(SharedMemory, OutOfBoundsThrows) {
  Device dev(small_config());
  LaunchConfig cfg;
  cfg.smem_bytes = 64;
  EXPECT_THROW(launch(dev, cfg,
                      [&](Cta& cta) {
                        Warp w = cta.warp(0);
                        Lanes<std::uint32_t> off{};
                        off[0] = 61;  // 61 + 4 > 64
                        Lanes<float> dst;
                        w.lds(off, dst, 0x1u);
                      }),
               CheckError);
}

TEST(Shuffle, ArbitraryPermutationAndXor) {
  Device dev(small_config());
  LaunchConfig cfg;
  Lanes<int> rotated{};
  Lanes<int> butterflied{};
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    Lanes<int> src;
    Lanes<int> idx;
    for (int lane = 0; lane < 32; ++lane) {
      src[static_cast<std::size_t>(lane)] = lane * 10;
      idx[static_cast<std::size_t>(lane)] = (lane + 1) % 32;
    }
    w.shfl(rotated, src, idx);
    w.shfl_xor(butterflied, src, 16);
  });
  for (int lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(rotated[static_cast<std::size_t>(lane)], ((lane + 1) % 32) * 10);
    EXPECT_EQ(butterflied[static_cast<std::size_t>(lane)], (lane ^ 16) * 10);
  }
  EXPECT_EQ(s.op(Op::kShfl), 2u);
}

TEST(Shuffle, InPlaceAliasIsSafe) {
  Device dev(small_config());
  LaunchConfig cfg;
  launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    Lanes<int> v;
    for (int lane = 0; lane < 32; ++lane) {
      v[static_cast<std::size_t>(lane)] = lane;
    }
    w.shfl_xor(v, v, 1);  // dst aliases src
    for (int lane = 0; lane < 32; ++lane) {
      EXPECT_EQ(v[static_cast<std::size_t>(lane)], lane ^ 1);
    }
  });
}

TEST(Warp, ManualCountingHook) {
  Device dev(small_config());
  LaunchConfig cfg;
  KernelStats s = launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    w.count(Op::kImad, 7);
    w.count(Op::kIadd3, 3);
    w.fence();
  });
  EXPECT_EQ(s.op(Op::kImad), 7u);
  EXPECT_EQ(s.op(Op::kIadd3), 3u);
  EXPECT_EQ(s.op(Op::kBar), 1u);
}

TEST(Stats, AccumulateAndDerived) {
  KernelStats a, b;
  a.op(Op::kHmma) = 10;
  a.global_load_requests = 2;
  a.global_load_sectors = 20;
  b.op(Op::kHmma) = 5;
  b.l1_sector_misses = 4;
  a += b;
  EXPECT_EQ(a.op(Op::kHmma), 15u);
  EXPECT_DOUBLE_EQ(a.sectors_per_request(), 10.0);
  EXPECT_EQ(a.bytes_l2_to_l1(), 128u);
}

}  // namespace
}  // namespace vsparse::gpusim
