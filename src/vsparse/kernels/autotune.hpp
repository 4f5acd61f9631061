// Tiling-parameter autotuner.
//
// §7.1.2: "The tiling sizes are tuned on a subset of benchmarks to find
// a configuration that brings the highest geometric mean speedup."
// This module does that mechanically: run each candidate configuration
// on the given problems, score by geometric-mean model cycles, return
// the winner.  Works for the octet SpMM (TileK, batching) and the FPU
// SpMM (TileN, TileK).
#pragma once

#include <utility>
#include <vector>

#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/gpusim/config.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace vsparse::kernels {

/// A tuning problem: one sparse operand + dense output width.
struct TuneProblem {
  Cvs a;
  int n = 256;
};

template <class Params>
struct TuneResult {
  Params best;
  double best_geomean_cycles = 0;
  /// All candidates with their scores (sorted best-first).
  std::vector<std::pair<Params, double>> ranking;
};

/// Sweep the octet SpMM's candidate TileK / batching settings.
TuneResult<SpmmOctetParams> autotune_spmm_octet(
    const std::vector<TuneProblem>& problems,
    const gpusim::DeviceConfig& hw = gpusim::DeviceConfig::volta_v100());

/// Sweep the FPU SpMM's TileN / TileK grid (the §5.1 trade-off).
TuneResult<SpmmFpuParams> autotune_spmm_fpu(
    const std::vector<TuneProblem>& problems,
    const gpusim::DeviceConfig& hw = gpusim::DeviceConfig::volta_v100());

}  // namespace vsparse::kernels
