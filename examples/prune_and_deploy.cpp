// Pruning-deployment demo: take a dense "weight" layer, magnitude-prune
// it at V x 1 column-vector granularity (the algorithm-side workflow
// the paper's encoding enables), encode to CVS, and compare every SpMM
// kernel the library ships on the resulting matrix.
//
// Usage: prune_and_deploy [sparsity in [0, 1)] [V in {1, 2, 4, 8}]
// The tensor-core kernels need V >= 2; at V = 1 only the FPU kernel
// runs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "args.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace {

// Magnitude pruning at Vx1 granularity: keep the (1-sparsity) fraction
// of column vectors with the largest L2 norm.
vsparse::Cvs magnitude_prune(const vsparse::DenseMatrix<vsparse::half_t>& w,
                             int v, double sparsity) {
  using namespace vsparse;
  const int vec_rows = w.rows() / v;
  struct Scored {
    float norm;
    int vr, col;
  };
  std::vector<Scored> scored;
  scored.reserve(static_cast<std::size_t>(vec_rows) * w.cols());
  for (int vr = 0; vr < vec_rows; ++vr) {
    for (int c = 0; c < w.cols(); ++c) {
      float norm = 0;
      for (int t = 0; t < v; ++t) {
        const float x = static_cast<float>(w.at(vr * v + t, c));
        norm += x * x;
      }
      scored.push_back({norm, vr, c});
    }
  }
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(scored.size()) * (1.0 - sparsity));
  std::nth_element(scored.begin(), scored.begin() + static_cast<long>(keep),
                   scored.end(),
                   [](const Scored& a, const Scored& b) { return a.norm > b.norm; });
  DenseMatrix<half_t> pruned(w.rows(), w.cols());
  for (std::size_t i = 0; i < keep; ++i) {
    for (int t = 0; t < v; ++t) {
      pruned.at(scored[i].vr * v + t, scored[i].col) =
          w.at(scored[i].vr * v + t, scored[i].col);
    }
  }
  return Cvs::from_dense(pruned, v);
}

int run(int argc, char** argv) {
  using namespace vsparse;
  const double sparsity = examples::sparsity_arg(argc, argv, 1, 0.9);
  const int v = examples::v_arg(argc, argv, 2, 4);
  const int m = 1024, k = 512, n = 256;

  Rng rng(11);
  DenseMatrix<half_t> w(m, k);
  w.fill_random(rng, -1.0f, 1.0f);
  Cvs pruned = magnitude_prune(w, v, sparsity);
  std::printf("pruned %dx%d layer at %dx1 grain: %.1f%% sparse, "
              "%lld vectors kept\n",
              m, k, v, pruned.sparsity() * 100,
              static_cast<long long>(pruned.nnz_vectors()));

  gpusim::DeviceConfig hw;
  gpusim::Device dev;
  auto da = to_device(dev, pruned);
  DenseMatrix<half_t> b(k, n);
  b.fill_random(rng);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ci(m, n);
  auto dc = to_device(dev, ci);

  // Dense baseline on the unpruned weights.
  auto dw = to_device(dev, w);
  DenseMatrix<half_t> cd(m, n);
  auto dcd = to_device(dev, cd);
  const double dense = kernels::hgemm_tcu(dev, dw, db, dcd).cycles(hw);

  std::printf("\n%-22s %12s %10s\n", "kernel", "cycles", "speedup");
  std::printf("%-22s %12.0f %9.2fx\n", "cublasHgemm (dense)", dense, 1.0);
  const auto row = [&](const char* name, const kernels::KernelRun& r) {
    std::printf("%-22s %12.0f %9.2fx\n", name, r.cycles(hw),
                dense / r.cycles(hw));
  };
  if (v >= 2) row("spmm_octet (paper)", kernels::spmm_octet(dev, da, db, dc));
  row("spmm_fpu (sputnik)", kernels::spmm_fpu_subwarp(dev, da, db, dc));
  if (v >= 2) {
    BlockedEll ell = make_blocked_ell(m, k, v, sparsity, rng);
    auto dell = to_device(dev, ell);
    row("blocked-ELL (cusparse)",
        kernels::spmm_blocked_ell(dev, dell, db, dc));
  }

  // Deployment-quality check: the kernel the dispatch layer picks for
  // this V (octet for V >= 2, FPU for V = 1) equals the reference SpMM.
  const kernels::KernelRun check = kernels::spmm(dev, da, db, dc);
  const DenseMatrix<half_t> got = from_device(dc);
  DenseMatrix<half_t> ref = spmm_reference(pruned, b);
  double max_err = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      max_err = std::max<double>(max_err,
                         std::abs(static_cast<float>(got.at(i, j)) -
                                  static_cast<float>(ref.at(i, j))));
    }
  }
  std::printf("\n%s vs reference: max abs err %g\n",
              check.config.profile.name.c_str(), max_err);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return examples::run_example("prune_and_deploy",
                               [&] { return run(argc, argv); });
}
