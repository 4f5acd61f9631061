// Common result type for all kernels: the functional output lives in
// device memory; the performance-relevant products are the hardware
// counters plus the launch shape, which together feed the cost model.
#pragma once

#include <utility>

#include "vsparse/gpusim/costmodel.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/stats.hpp"
#include "vsparse/kernels/abft.hpp"

namespace vsparse::kernels {

/// What a kernel launch produced (besides its output buffers).
struct KernelRun {
  gpusim::KernelStats stats;
  gpusim::LaunchConfig config;

  /// Fault-tolerance outcome; default-inert unless the ABFT kernel
  /// variant (kernels/spmm/spmm_octet_abft.hpp) produced this run.
  AbftReport abft;

  KernelRun() = default;
  KernelRun(gpusim::KernelStats s, gpusim::LaunchConfig cfg)
      : stats(s), config(std::move(cfg)) {}

  /// Evaluate the performance model for this run.
  gpusim::CostEstimate cost(const gpusim::DeviceConfig& dev,
                            const gpusim::CostParams& params = {}) const {
    return gpusim::estimate_cost(dev, config, stats, params);
  }

  /// Model cycles (convenience for speedup ratios).
  double cycles(const gpusim::DeviceConfig& dev,
                const gpusim::CostParams& params = {}) const {
    return cost(dev, params).cycles;
  }
};

}  // namespace vsparse::kernels
