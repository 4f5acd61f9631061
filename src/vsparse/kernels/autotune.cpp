#include "vsparse/kernels/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "vsparse/gpusim/device.hpp"

namespace vsparse::kernels {

namespace {

/// Evaluate one configuration: geometric-mean model cycles across the
/// problems (fresh device per run so cache state is independent).
template <class RunFn>
double geomean_cycles(const std::vector<TuneProblem>& problems,
                      const gpusim::DeviceConfig& hw, RunFn&& run_fn) {
  VSPARSE_CHECK(!problems.empty());
  double log_sum = 0;
  for (const TuneProblem& p : problems) {
    gpusim::DeviceConfig cfg = hw;
    cfg.dram_capacity = std::size_t{1} << 30;
    gpusim::Device dev(cfg);
    CvsDevice a = to_device(dev, p.a);
    auto b = dev.alloc<half_t>(static_cast<std::size_t>(p.a.cols) * p.n);
    auto c = dev.alloc<half_t>(static_cast<std::size_t>(p.a.rows) * p.n);
    DenseDevice<half_t> db{b, p.a.cols, p.n, p.n, Layout::kRowMajor};
    DenseDevice<half_t> dc{c, p.a.rows, p.n, p.n, Layout::kRowMajor};
    log_sum += std::log(run_fn(dev, a, db, dc).cycles(hw));
  }
  return std::exp(log_sum / static_cast<double>(problems.size()));
}

template <class Params>
void finalize(TuneResult<Params>& result) {
  std::sort(result.ranking.begin(), result.ranking.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  result.best = result.ranking.front().first;
  result.best_geomean_cycles = result.ranking.front().second;
}

}  // namespace

TuneResult<SpmmOctetParams> autotune_spmm_octet(
    const std::vector<TuneProblem>& problems, const gpusim::DeviceConfig& hw) {
  TuneResult<SpmmOctetParams> result;
  for (int tile_k : {8, 16, 32}) {
    for (bool batch : {true, false}) {
      SpmmOctetParams params{.tile_k = tile_k, .batch_loads = batch};
      const double score = geomean_cycles(
          problems, hw, [&](auto& dev, auto& a, auto& b, auto& c) {
            return spmm_octet(dev, a, b, c, params);
          });
      result.ranking.emplace_back(params, score);
    }
  }
  finalize(result);
  return result;
}

TuneResult<SpmmFpuParams> autotune_spmm_fpu(
    const std::vector<TuneProblem>& problems, const gpusim::DeviceConfig& hw) {
  TuneResult<SpmmFpuParams> result;
  for (int tile_n : {16, 32, 64}) {
    for (int tile_k : {16, 32}) {
      SpmmFpuParams params{.tile_n = tile_n, .tile_k = tile_k};
      const double score = geomean_cycles(
          problems, hw, [&](auto& dev, auto& a, auto& b, auto& c) {
            return spmm_fpu_subwarp(dev, a, b, c, params);
          });
      result.ranking.emplace_back(params, score);
    }
  }
  finalize(result);
  return result;
}

}  // namespace vsparse::kernels
