#include "vsparse/kernels/dispatch.hpp"

#include <algorithm>

#include "vsparse/gpusim/device.hpp"

namespace vsparse::kernels {

namespace {

double cvs_density(const CvsDevice& m) {
  const double total = static_cast<double>(m.rows) * m.cols;
  if (total == 0) return 0.0;
  return static_cast<double>(m.col_idx.size()) * m.v / total;
}

}  // namespace

DispatchShape spmm_dispatch_shape(const CvsDevice& a,
                                  const DenseDevice<half_t>& b) {
  return DispatchShape{a.rows, a.cols, b.cols, a.v, cvs_density(a)};
}

DispatchShape sddmm_dispatch_shape(const DenseDevice<half_t>& a,
                                   const CvsDevice& mask) {
  return DispatchShape{mask.rows, a.cols, mask.cols, mask.v,
                       cvs_density(mask)};
}

KernelRun spmm(gpusim::Device& dev, const CvsDevice& a,
               const DenseDevice<half_t>& b, DenseDevice<half_t>& c,
               const SpmmOptions& options) {
  SpmmAlgorithm algo = options.algorithm;
  if (options.abft.has_value()) {
    if (algo == SpmmAlgorithm::kAuto) {
      VSPARSE_CHECK_RAISE(a.v >= 2, ErrorCode::kBadDispatch,
                          "kernels.dispatch",
                          "ABFT spmm requires the octet kernel (V >= 2); "
                          "got V = " << a.v);
      algo = SpmmAlgorithm::kOctet;
    }
    VSPARSE_CHECK_RAISE(algo == SpmmAlgorithm::kOctet, ErrorCode::kBadDispatch,
                        "kernels.dispatch",
                        "ABFT is only implemented for the octet SpMM kernel");
    const AbftOptions abft = *options.abft;
    return kernel_for(algo).spmm_abft_launch(
        SpmmCall{dev, a, b, c, options.sim, &abft});
  }
  if (algo == SpmmAlgorithm::kAuto) {
    algo = resolve_auto_spmm(spmm_dispatch_shape(a, b));
  }
  return kernel_for(algo).spmm_launch(SpmmCall{dev, a, b, c, options.sim});
}

KernelRun sddmm(gpusim::Device& dev, const DenseDevice<half_t>& a,
                const DenseDevice<half_t>& b, const CvsDevice& mask,
                gpusim::Buffer<half_t>& out_values,
                const SddmmOptions& options) {
  VSPARSE_CHECK_RAISE(!options.abft.has_value(), ErrorCode::kBadDispatch,
                      "kernels.dispatch",
                      "no SDDMM kernel has an ABFT variant yet; "
                      "SddmmOptions::abft must stay unset");
  SddmmAlgorithm algo = options.algorithm;
  if (algo == SddmmAlgorithm::kAuto) {
    algo = resolve_auto_sddmm(sddmm_dispatch_shape(a, mask));
  }
  return kernel_for(algo).sddmm_launch(
      SddmmCall{dev, a, b, mask, out_values, options.sim});
}

HostRun<DenseMatrix<half_t>> spmm_host(const Cvs& a,
                                       const DenseMatrix<half_t>& b,
                                       const SpmmOptions& options) {
  gpusim::DeviceConfig cfg = gpusim::DeviceConfig::volta_v100();
  const std::size_t need =
      a.values.size() * 2 + a.col_idx.size() * 8 +
      (static_cast<std::size_t>(b.rows()) * b.cols() +
       static_cast<std::size_t>(a.rows) * b.cols()) *
          2 +
      (16u << 20);
  cfg.dram_capacity = std::max(cfg.dram_capacity, need * 2);
  gpusim::Device dev(cfg);
  CvsDevice da = to_device(dev, a);
  DenseDevice<half_t> db = to_device(dev, b);
  DenseMatrix<half_t> c(a.rows, b.cols());
  DenseDevice<half_t> dc = to_device(dev, c);
  KernelRun run = spmm(dev, da, db, dc, options);
  return {from_device(dc), std::move(run)};
}

HostRun<Cvs> sddmm_host(const DenseMatrix<half_t>& a,
                        const DenseMatrix<half_t>& b, const Cvs& mask,
                        const SddmmOptions& options) {
  gpusim::Device dev;
  DenseDevice<half_t> da = to_device(dev, a);
  DenseDevice<half_t> db = to_device(dev, b);
  CvsDevice dmask = to_device(dev, mask);
  auto out = dev.alloc<half_t>(mask.values.size());
  KernelRun run = sddmm(dev, da, db, dmask, out, options);
  Cvs result = mask;
  auto host = out.host();
  std::copy(host.begin(), host.end(), result.values.begin());
  return {std::move(result), std::move(run)};
}

}  // namespace vsparse::kernels
