// Quickstart: sparse x dense matrix multiplication with the
// column-vector sparse encoding and the octet-tiling SpMM kernel.
//
//   1. build a dense matrix, prune it at 4x1 vector granularity,
//   2. encode it (Cvs), upload operands to the simulated GPU,
//   3. run spmm_octet, verify against the host reference,
//   4. read out the hardware counters and the performance model,
//   5. do the same round trip in one call with the dispatch host API.
//
// Build: cmake --build build --target quickstart && ./build/examples/quickstart
#include <cstdio>

#include "args.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"

namespace {

int run() {
  using namespace vsparse;

  // ---- 1. a 256x128 matrix, 90% sparse at 4x1 vector grain -----------
  const int m = 256, k = 128, n = 64, v = 4;
  Rng rng(2021);
  Cvs a = make_cvs(m, k, v, /*sparsity=*/0.9, rng);
  std::printf("A: %dx%d, V=%d, %lld nonzero vectors (%.1f%% sparse)\n", m, k,
              v, static_cast<long long>(a.nnz_vectors()), a.sparsity() * 100);

  DenseMatrix<half_t> b(k, n);
  b.fill_random(rng);

  // ---- 2. upload to the simulated V100 --------------------------------
  gpusim::Device dev;  // DeviceConfig::volta_v100() by default
  CvsDevice da = to_device(dev, a);
  DenseDevice<half_t> db = to_device(dev, b);
  DenseMatrix<half_t> c_init(m, n);
  DenseDevice<half_t> dc = to_device(dev, c_init);

  // ---- 3. run the paper's kernel and verify ----------------------------
  kernels::KernelRun run = kernels::spmm_octet(dev, da, db, dc);
  DenseMatrix<half_t> c = from_device(dc);
  DenseMatrix<half_t> ref = spmm_reference(a, b);
  double max_err = 0;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      max_err = std::max<double>(max_err,
                         std::abs(static_cast<float>(c.at(i, j)) -
                                  static_cast<float>(ref.at(i, j))));
    }
  }
  std::printf("max |kernel - reference| = %g (fp16 rounding only)\n", max_err);

  // ---- 4. counters + model ---------------------------------------------
  std::printf("\nhardware counters:\n%s\n", run.stats.to_string().c_str());
  const auto est = run.cost(dev.config());
  std::printf("\nmodel: %.0f cycles, bound by %s, sectors/request %.2f\n",
              est.cycles, est.bound_by.c_str(),
              run.stats.sectors_per_request());

  // ---- 5. or let the dispatch layer do the whole round trip ------------
  // spmm_host picks the kernel (octet for V >= 2), sizes a device, and
  // returns the result *with* the KernelRun, so cost and counters are
  // available without managing device buffers.
  auto host = kernels::spmm_host(a, b);
  std::printf("\nhost API: %s, %.0f model cycles, %llu HMMA instructions\n",
              host.run.config.profile.name.c_str(),
              host.run.cycles(dev.config()),
              static_cast<unsigned long long>(
                  host.run.stats.op(gpusim::Op::kHmma)));

  return max_err < 1.0 ? 0 : 1;
}

}  // namespace

int main() { return examples::run_example("quickstart", run); }
