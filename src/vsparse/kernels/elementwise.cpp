#include "vsparse/kernels/elementwise.hpp"

#include "vsparse/common/math.hpp"
#include "vsparse/fp16/vec.hpp"

namespace vsparse::kernels {

namespace {

using gpusim::AddrLanes;
using gpusim::Cta;
using gpusim::Lanes;
using gpusim::Op;
using gpusim::Warp;

constexpr int kChunk = 256;  // halves per warp pass (32 lanes x 8)
constexpr int kPasses = 8;   // chunks per CTA

}  // namespace

KernelRun residual_add(gpusim::Device& dev, DenseDevice<half_t>& x,
                       const DenseDevice<half_t>& y) {
  VSPARSE_CHECK(x.rows == y.rows && x.cols == y.cols);
  VSPARSE_CHECK(x.layout == y.layout);
  const std::int64_t elems = static_cast<std::int64_t>(x.rows) * x.cols;
  VSPARSE_CHECK(elems % 8 == 0);

  gpusim::LaunchConfig cfg;
  cfg.grid = std::max<int>(
      1, static_cast<int>(ceil_div<std::int64_t>(elems, kChunk * kPasses)));
  cfg.cta_threads = 32;
  cfg.profile = {.name = "residual_add",
                 .regs_per_thread = 24,
                 .static_instrs = 128,
                 .icache_pressure = 1.0,
                 .ilp_factor = 0.7};

  auto y_host = y.buf.host();
  gpusim::KernelStats stats = gpusim::launch(dev, cfg, [&](Cta& cta) {
    Warp w = cta.warp(0);
    for (int pass = 0; pass < kPasses; ++pass) {
      const std::int64_t base =
          (static_cast<std::int64_t>(cta.cta_id()) * kPasses + pass) * kChunk;
      if (base >= elems) break;
      AddrLanes xaddr{}, yaddr{};
      Lanes<half8> frag{}, yfrag{};
      std::uint32_t mask = 0;
      for (int lane = 0; lane < 32; ++lane) {
        const std::int64_t idx = base + lane * 8;
        if (idx + 8 > elems) continue;
        xaddr[static_cast<std::size_t>(lane)] =
            x.buf.addr(static_cast<std::size_t>(idx));
        yaddr[static_cast<std::size_t>(lane)] =
            y.buf.addr(static_cast<std::size_t>(idx));
        mask |= 1u << lane;
      }
      w.ldg(xaddr, frag, mask);
      w.ldg(yaddr, yfrag, mask);
      w.count(Op::kHfma, 8);
      for (int lane = 0; lane < 32; ++lane) {
        if (!(mask & (1u << lane))) continue;
        const std::int64_t idx = base + lane * 8;
        for (int e = 0; e < 8; ++e) {
          frag[static_cast<std::size_t>(lane)][e] =
              hadd(frag[static_cast<std::size_t>(lane)][e],
                   y_host[static_cast<std::size_t>(idx + e)]);
        }
      }
      w.stg(xaddr, frag, mask);
    }
  });
  return {stats, cfg};
}

}  // namespace vsparse::kernels
