// google-benchmark micro suite for the substrate primitives: fp16
// conversion, cache-model lookups, the octet MMA, warp loads, and the
// benchmark generators.  These measure the SIMULATOR's own speed
// (host wall-clock), complementing the model-cycle figure benches.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/tensorcore.hpp"

namespace vsparse {
namespace {

void BM_HalfFromFloat(benchmark::State& state) {
  Rng rng(1);
  std::vector<float> xs(4096);
  for (float& x : xs) x = rng.uniform_float(-100, 100);
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (float x : xs) acc += half_t(x).bits();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HalfFromFloat);

void BM_HalfToFloat(benchmark::State& state) {
  std::vector<half_t> xs(4096);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = half_t::from_bits(static_cast<std::uint16_t>(i * 13));
  }
  for (auto _ : state) {
    float acc = 0;
    for (half_t x : xs) acc += static_cast<float>(x);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HalfToFloat);

void BM_SectorCacheAccess(benchmark::State& state) {
  gpusim::SectorCache cache(128 << 10, 128, 32, 4);
  Rng rng(2);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.uniform_u64(1 << 20) * 32;
  for (auto _ : state) {
    int hits = 0;
    for (auto a : addrs) hits += cache.access(a) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SectorCacheAccess);

void BM_MmaM8n8k4(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 1 << 20;
  gpusim::Device dev(cfg);
  gpusim::MmaFragAB a{}, b{};
  gpusim::MmaFragC c{};
  Rng rng(3);
  for (auto& lane : a) {
    for (int i = 0; i < 4; ++i) lane[i] = half_t(rng.uniform_float(-1, 1));
  }
  for (auto& lane : b) {
    for (int i = 0; i < 4; ++i) lane[i] = half_t(rng.uniform_float(-1, 1));
  }
  gpusim::LaunchConfig lcfg;
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      for (int i = 0; i < 64; ++i) w.mma_m8n8k4(a, b, c);
    });
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 1024);  // MACs
}
BENCHMARK(BM_MmaM8n8k4);

void BM_WarpLdg128(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 16 << 20;
  gpusim::Device dev(cfg);
  auto buf = dev.alloc<half8>(64 << 10);
  gpusim::LaunchConfig lcfg;
  Rng rng(4);
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::AddrLanes addr;
      gpusim::Lanes<half8> dst;
      for (int rep = 0; rep < 64; ++rep) {
        const auto base = rng.uniform_u64(buf.size() - 32);
        for (int lane = 0; lane < 32; ++lane) {
          addr[static_cast<std::size_t>(lane)] =
              buf.addr(base + static_cast<std::size_t>(lane));
        }
        w.ldg(addr, dst);
      }
      benchmark::DoNotOptimize(dst);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_WarpLdg128);

// Per-span-op rows (DESIGN.md §2h): same logical accesses as the
// per-lane BM_WarpLdg128 above but stated as span descriptors, so the
// trajectory artifact shows what the fast path buys per op shape.

void BM_SpanLdgUniform(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 16 << 20;
  gpusim::Device dev(cfg);
  auto buf = dev.alloc<half8>(64 << 10);
  gpusim::LaunchConfig lcfg;
  Rng rng(7);
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::Lanes<half8> dst;
      for (int rep = 0; rep < 64; ++rep) {
        w.ldg_span(buf.addr(rng.uniform_u64(buf.size())), 0, dst);
      }
      benchmark::DoNotOptimize(dst);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpanLdgUniform);

void BM_SpanLdgAffine128(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 16 << 20;
  gpusim::Device dev(cfg);
  auto buf = dev.alloc<half8>(64 << 10);
  gpusim::LaunchConfig lcfg;
  Rng rng(8);
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::Lanes<half8> dst;
      for (int rep = 0; rep < 64; ++rep) {
        w.ldg_span(buf.addr(rng.uniform_u64(buf.size() - 32)), 16, dst);
      }
      benchmark::DoNotOptimize(dst);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpanLdgAffine128);

void BM_SpanLdgSegmented4x8(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 16 << 20;
  gpusim::Device dev(cfg);
  auto buf = dev.alloc<half8>(64 << 10);
  gpusim::LaunchConfig lcfg;
  Rng rng(9);
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::Lanes<half8> dst;
      std::uint64_t gbase[4];
      for (int rep = 0; rep < 64; ++rep) {
        for (auto& g : gbase) g = buf.addr(rng.uniform_u64(buf.size() - 8));
        w.ldg_span(gbase, 4, 8, 16, dst);
      }
      benchmark::DoNotOptimize(dst);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpanLdgSegmented4x8);

void BM_SpanStgAffine128(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 16 << 20;
  gpusim::Device dev(cfg);
  auto buf = dev.alloc<half8>(64 << 10);
  gpusim::LaunchConfig lcfg;
  Rng rng(10);
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::Lanes<half8> src{};
      for (int rep = 0; rep < 64; ++rep) {
        w.stg_span(buf.addr(rng.uniform_u64(buf.size() - 32)), 16, src);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpanStgAffine128);

void BM_SpanSmemRoundTrip(benchmark::State& state) {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 1 << 20;
  gpusim::Device dev(cfg);
  gpusim::LaunchConfig lcfg;
  lcfg.smem_bytes = 1024;
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::Lanes<half8> v{};
      for (int rep = 0; rep < 64; ++rep) {
        w.sts_span(0, 16, v);
        w.lds_span(0, 16, v);
      }
      benchmark::DoNotOptimize(v);
    });
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_SpanSmemRoundTrip);

// The B-fragment gather of Blocked-ELL and the dense GEMM: eight 4-lane
// segments, one per B row (rows 256 B apart, clamped at blk - 1 as
// Blocked-ELL clamps them), lanes 16 B apart, cycling through the four
// 32-column tiles and both 8-row passes.  Rows share their banks, so
// the bank scan sees blk distinct words per bank (at most 8).
void BM_SpanLdsSegmented8x4(benchmark::State& state) {
  const int blk = static_cast<int>(state.range(0));
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 1 << 20;
  gpusim::Device dev(cfg);
  gpusim::LaunchConfig lcfg;
  lcfg.smem_bytes = 16 * 256;
  for (auto _ : state) {
    gpusim::launch(dev, lcfg, [&](gpusim::Cta& cta) {
      gpusim::Warp w = cta.warp(0);
      gpusim::Lanes<half8> dst;
      for (int rep = 0; rep < 64; ++rep) {
        const int ct = rep % 4;
        const int pass = (rep / 4) % 2;
        std::uint32_t off[8];
        for (int seg = 0; seg < 8; ++seg) {
          off[seg] = static_cast<std::uint32_t>(
              std::min(8 * pass + seg, blk - 1) * 256 + 64 * ct);
        }
        w.lds_span(off, 8, 4, 16, dst);
      }
      benchmark::DoNotOptimize(dst);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SpanLdsSegmented8x4)->Arg(2)->Arg(16);

void BM_MakeCvs(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    Cvs m = make_cvs(1024, 512, 4, 0.9, rng);
    benchmark::DoNotOptimize(m.nnz());
  }
}
BENCHMARK(BM_MakeCvs);

void BM_AttentionMask(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    Cvs m = make_attention_mask(2048, 8, 256, 0.9, rng);
    benchmark::DoNotOptimize(m.nnz());
  }
}
BENCHMARK(BM_AttentionMask);

}  // namespace
}  // namespace vsparse
