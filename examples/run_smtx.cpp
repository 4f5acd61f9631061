// Run the library on a real DLMC matrix: load an .smtx pattern file
// (the format the Deep Learning Matrix Collection distributes), attach
// random values per §7.1.1, and race the octet and FPU SpMM kernels on
// it (only FPU at V = 1).
//
// Usage: run_smtx [file.smtx] [V in {1, 2, 4, 8}] [N]
// Without a file, writes a small demonstration pattern to demo.smtx in
// the working directory and uses it.
#include <cstdio>
#include <sstream>
#include <vector>

#include "args.hpp"
#include "vsparse/bench/runner.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/smtx_io.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/kernels/dispatch.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace vsparse;
  const char* path = argc > 1 ? argv[1] : nullptr;
  const int v = examples::v_arg(argc, argv, 2, 4);
  const int n = examples::positive_arg(argc, argv, 3, "N", 256);

  SmtxPattern pattern;
  if (path != nullptr) {
    pattern = read_smtx_file(path);
    std::printf("loaded %s: %d x %d pattern rows, %zu nonzeros\n", path,
                pattern.rows, pattern.cols, pattern.col_idx.size());
  } else {
    Rng rng(42);
    Cvs demo = make_cvs(512, 512, 1, 0.9, rng, 0.25);
    pattern = cvs_to_smtx(demo);
    write_smtx_file("demo.smtx", pattern);
    std::printf("no file given; wrote a 512x512 90%%-sparse demo to "
                "demo.smtx\n");
  }

  Rng rng(7);
  Cvs a = smtx_to_cvs(pattern, v, rng);
  std::printf("as CVS at V=%d: %d x %d, %.1f%% sparse, %lld vectors\n\n",
              v, a.rows, a.cols, a.sparsity() * 100,
              static_cast<long long>(a.nnz_vectors()));

  gpusim::DeviceConfig hw;
  gpusim::DeviceConfig dc = hw;
  dc.dram_capacity = std::size_t{2} << 30;
  gpusim::Device dev(dc);
  auto da = to_device(dev, a);
  auto b = dev.alloc<half_t>(static_cast<std::size_t>(a.cols) * n);
  auto c = dev.alloc<half_t>(static_cast<std::size_t>(a.rows) * n);
  DenseDevice<half_t> db{b, a.cols, n, n, Layout::kRowMajor};
  DenseDevice<half_t> dcv{c, a.rows, n, n, Layout::kRowMajor};

  bench::DenseBaseline dense;
  const double dense_cycles = dense.hgemm_cycles(a.rows, a.cols, n);
  std::printf("%-14s %12s %10s   (dense hgemm: %.0f cycles)\n", "kernel",
              "cycles", "speedup", dense_cycles);

  using kernels::SpmmAlgorithm;
  std::vector<kernels::KernelRun> runs;
  for (SpmmAlgorithm algo :
       {SpmmAlgorithm::kOctet, SpmmAlgorithm::kFpuSubwarp}) {
    if (v == 1 && algo != SpmmAlgorithm::kFpuSubwarp) continue;
    auto run = kernels::spmm(dev, da, db, dcv, {.algorithm = algo});
    std::printf("%-14s %12.0f %9.2fx\n", run.config.profile.name.c_str(),
                run.cycles(hw), dense_cycles / run.cycles(hw));
    runs.push_back(run);
    dev.flush_all_caches();
  }

  // One record per kernel: the model's verdict plus every registry
  // counter (gpusim/trace/counters.hpp), the same keys metrics.json uses.
  std::ostringstream os;
  os << "[\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const gpusim::CostEstimate cost = runs[i].cost(hw);
    os << "  {\"kernel\": \"" << runs[i].config.profile.name
       << "\", \"v\": " << v << ", \"n\": " << n
       << ", \"cycles\": " << cost.cycles << ", \"bound_by\": \""
       << cost.bound_by << "\",\n   \"counters\":\n";
    gpusim::counters_json(os, runs[i].stats, 4);
    os << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::printf("\nJSON records (pipe to a file for tooling):\n%s",
              os.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return examples::run_example("run_smtx", [&] { return run(argc, argv); });
}
