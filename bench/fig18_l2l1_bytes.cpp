// Figure 18: total bytes moved from L2 to L1 by the octet-tiling SpMM
// on the column-vector encoding vs the Blocked-ELL kernel, at equal
// problem size and sparsity — the §4 claim that data reuse is
// independent of the block's column count (and the vector encoding
// even loads slightly less).
#include <cstdio>

#include "vsparse/bench/runner.hpp"
#include "vsparse/bench/scale.hpp"
#include "vsparse/bench/suite.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace vsparse::bench {
namespace {

int run(int argc, char** argv) {
  const Scale scale = parse_scale(argc, argv);
  DriverSession session(argc, argv);
  const int m = scale == Scale::kPaper ? 2048 : 1024;
  const int k = scale == Scale::kPaper ? 1024 : 512;
  const int n = 256;
  const int v = 4;

  std::printf("# Figure 18: bytes L2$ -> L1$, vector-sparse (V=%d) vs "
              "Blocked-ELL (block=%d), %dx%dx%d\n",
              v, v, m, k, n);
  std::printf("%-8s %-18s %-18s %s\n", "sparsity", "vector-sparse",
              "blocked-ELL", "ratio");

  for (double sparsity : sparsity_grid()) {
    char case_name[64];
    std::snprintf(case_name, sizeof(case_name), "fig18 sparsity=%.2f",
                  sparsity);
    run_case(case_name, [&] {
    gpusim::Device dev = session.device();
    Cvs a_host = make_suite_cvs({m, k}, sparsity, v);
    auto a = to_device(dev, a_host);
    BlockedEll ell_host = make_suite_blocked_ell({m, k}, sparsity, v);
    auto ell = to_device(dev, ell_host);
    auto b = dev.alloc<half_t>(static_cast<std::size_t>(k) * n);
    auto c = dev.alloc<half_t>(static_cast<std::size_t>(m) * n);
    DenseDevice<half_t> db{b, k, n, n, Layout::kRowMajor};
    DenseDevice<half_t> dc{c, m, n, n, Layout::kRowMajor};

    const auto vec = kernels::spmm_octet(dev, a, db, dc);
    dev.flush_all_caches();
    const auto bel = kernels::spmm_blocked_ell(dev, ell, db, dc);
    const double vb = static_cast<double>(vec.stats.bytes_l2_to_l1());
    const double eb = static_cast<double>(bel.stats.bytes_l2_to_l1());
    std::printf("%-8.2f %16.3e B %16.3e B %6.2f\n", sparsity, vb, eb,
                eb > 0 ? vb / eb : 0.0);
    });
  }
  std::printf("\n# paper shape: the vector encoding loads fewer (or equal) "
              "bytes from L2 at every sparsity level\n");
  return session.finish();
}

}  // namespace
}  // namespace vsparse::bench

int main(int argc, char** argv) { return vsparse::bench::run(argc, argv); }
