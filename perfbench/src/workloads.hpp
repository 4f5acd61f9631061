// The benchmark's workloads.  Each run_* function performs one complete
// run: repeated setup (median reported), the timed loop, the output
// checks, and — when `tracer` is non-null — the traced repeat of the
// timed loop that yields the per-layer metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/gpusim/device.hpp"

namespace perfbench {

RunResult run_spmm_dlmc(const Options& opts, Tracer* tracer);
RunResult run_attention_tcu(const Options& opts, Tracer* tracer);
RunResult run_serve_fleet(const Options& opts, Tracer* tracer);
RunResult run_serve_chaos(const Options& opts, Tracer* tracer);

/// Kernel-side measurements of the shapes the serving fleet draws
/// (serve/scheduler.cpp: SpMM with m, k in {64, 128}, V in {2, 4},
/// sparsity in {0.7, 0.9}, N = 64): the octet SpMM against the dense
/// hgemm on each class.  run_load does not expose its launches'
/// counters, so the serve workloads take their cost-model metrics from
/// this probe, run on the same engine with seed-derived operands.
struct ServingProbeResult {
  double sparse_cycles = 0;    ///< Σ octet cost-model cycles
  double speedup_geomean = 0;  ///< geomean dense / octet cycles
};

class ServingProbe {
 public:
  /// Set-up: operands generated and uploaded, dense baselines simulated
  /// (counted in `book` when `count`).
  ServingProbe(const Options& opts, Tracer* tracer, KernelBook& book,
               bool count);
  ~ServingProbe();
  ServingProbe(const ServingProbe&) = delete;
  ServingProbe& operator=(const ServingProbe&) = delete;

  /// One octet launch per class, each checked against spmm_reference.
  ServingProbeResult run(Tracer* tracer, KernelBook& book, RunResult& result);

 private:
  static constexpr int kN = 64;
  struct Class {
    vsparse::Cvs a;
    vsparse::DenseMatrix<vsparse::half_t> b;
    vsparse::CvsDevice da;
    vsparse::DenseDevice<vsparse::half_t> db, dc;
    double dense_cycles = 0;
    std::string label;
  };
  std::unique_ptr<gpusim::Device> dev_;  ///< Buffers point into it
  std::vector<Class> classes_;
};

/// Engine probes for traced runs: the host time of a one-CTA launch
/// (engine.launch_floor_us) and CTAs/s at opts.threads over CTAs/s at
/// one thread on a fixed SpMM subset (engine.thread_scaling).
void engine_probes(const Options& opts, Metrics& layers);

/// Per-layer host times derived from the tracer's spans: formats,
/// costmodel, transformer, readback, reference and serve layers.
/// `setup_reps` normalizes the setup-phase layers to one setup.
void span_layer_metrics(const Tracer& tracer, int setup_reps,
                        Metrics& layers);

}  // namespace perfbench
