// Profile explorer: run any shipped SpMM kernel on a chosen problem and
// print the full nsight-style counter dump plus the cost-model
// breakdown — the tool to reproduce the paper's per-kernel analysis
// (Tables 1-2) on your own configurations.
//
// Usage: profile_explorer [kernel] [M] [K] [N] [V] [sparsity]
//   kernel in {octet, fpu, blocked-ell, dense}; M, K, N positive;
//   V in {1, 2, 4, 8}; sparsity in [0, 1).  A shape the chosen kernel
//   cannot run (octet at V = 1, say) is reported on stderr with exit
//   status 2.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "args.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace {

int explore(int argc, char** argv) {
  using namespace vsparse;
  const std::string kernel = argc > 1 ? argv[1] : "octet";
  if (kernel != "octet" && kernel != "fpu" && kernel != "blocked-ell" &&
      kernel != "dense") {
    throw std::invalid_argument("unknown kernel '" + kernel +
                                "' (octet|fpu|blocked-ell|dense)");
  }
  const int m = examples::positive_arg(argc, argv, 2, "M", 2048);
  const int k = examples::positive_arg(argc, argv, 3, "K", 1024);
  const int n = examples::positive_arg(argc, argv, 4, "N", 256);
  const int v = examples::v_arg(argc, argv, 5, 4);
  const double sparsity = examples::sparsity_arg(argc, argv, 6, 0.9);

  gpusim::DeviceConfig hw;
  gpusim::DeviceConfig cfg = hw;
  cfg.dram_capacity = std::size_t{2} << 30;
  gpusim::Device dev(cfg);
  Rng rng(1);

  auto b = dev.alloc<half_t>(static_cast<std::size_t>(k) * n);
  auto c = dev.alloc<half_t>(static_cast<std::size_t>(m) * n);
  DenseDevice<half_t> db{b, k, n, n, Layout::kRowMajor};
  DenseDevice<half_t> dc{c, m, n, n, Layout::kRowMajor};

  kernels::KernelRun run;
  if (kernel == "dense") {
    auto a = dev.alloc<half_t>(static_cast<std::size_t>(m) * k);
    DenseDevice<half_t> da{a, m, k, k, Layout::kRowMajor};
    run = kernels::hgemm_tcu(dev, da, db, dc);
  } else if (kernel == "blocked-ell") {
    BlockedEll ell = make_blocked_ell(m, k, v, sparsity, rng);
    auto dell = to_device(dev, ell);
    run = kernels::spmm_blocked_ell(dev, dell, db, dc);
  } else {
    Cvs a_host = make_cvs(m, k, v, sparsity, rng, 0.25);
    auto a = to_device(dev, a_host);
    run = kernel == "octet" ? kernels::spmm_octet(dev, a, db, dc)
                            : kernels::spmm_fpu_subwarp(dev, a, db, dc);
  }

  std::printf("kernel %s on %dx%dx%d, V=%d, %.0f%% sparse\n",
              run.config.profile.name.c_str(), m, k, n, v, sparsity * 100);
  std::printf("grid=%d ctas x %d threads, %zu B smem, %d regs/thread, "
              "~%d SASS instrs\n\n",
              run.config.grid, run.config.cta_threads, run.config.smem_bytes,
              run.config.profile.regs_per_thread,
              run.config.profile.static_instrs);
  std::printf("%s\n", run.stats.to_string().c_str());

  const auto est = run.cost(hw);
  std::printf("\ncost model: %.0f cycles (%.1f us @1.38GHz), bound by %s\n",
              est.cycles, est.cycles / 1.38e3, est.bound_by.c_str());
  std::printf("  issue %.0f | tcu %.0f | fma %.0f | alu %.0f | lsu %.0f | "
              "smem %.0f | l1 %.0f | l2 %.0f | dram %.0f\n",
              est.issue_cycles, est.tcu_cycles, est.fma_cycles,
              est.alu_cycles, est.lsu_cycles, est.smem_cycles, est.l1_cycles,
              est.l2_cycles, est.dram_cycles);
  std::printf("  stalls: no-instruction %.1f%%, wait %.1f%%, "
              "short-scoreboard %.1f%%\n",
              est.stall_no_instruction * 100, est.stall_wait * 100,
              est.stall_short_scoreboard * 100);
  std::printf("  occupancy: %d CTAs/SM, %d warps/SM, %.2f waves\n",
              est.ctas_per_sm, est.active_warps_per_sm, est.waves);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return examples::run_example("profile_explorer",
                               [&] { return explore(argc, argv); });
}
