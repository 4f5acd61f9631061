// Table 4: end-to-end sparse-transformer inference — throughput, peak
// memory, and the numerical-fidelity proxy standing in for the paper's
// trained-model accuracy (see DESIGN.md's substitution table).
//
// Model: 4 layers, 4 heads, head dim 64, FFN 1024, fixed banded+random
// attention mask (band 256) at 90% sparsity with 8x1 vector grain,
// batch 8 — the paper's LRA configuration (sequence length 4000,
// padded here to a multiple of 64: 4096 at paper scale).
#include <cstdio>

#include "vsparse/bench/runner.hpp"
#include "vsparse/bench/scale.hpp"
#include "vsparse/transformer/fidelity.hpp"
#include "vsparse/transformer/model.hpp"

namespace vsparse::bench {
namespace {

int run(int argc, char** argv) {
  const Scale scale = parse_scale(argc, argv);
  DriverSession session(argc, argv);
  using transformer::Mode;
  transformer::ModelConfig cfg;
  cfg.seq = scale == Scale::kPaper ? 4096 : 1024;
  cfg.layers = 4;
  cfg.batch = 8;
  const double clock_hz = 1.38e9;  // V100 boost clock

  std::printf("# Table 4: sparse transformer inference (seq=%d, %d layers, "
              "%d heads x %d, batch %d, 90%% sparsity)\n",
              cfg.seq, cfg.layers, cfg.heads, cfg.head_dim, cfg.batch);
  std::printf("%-22s %-14s %-14s %-14s\n", "", "Dense(float)", "Dense(half)",
              "Sparse(half)");

  double thr[3], mem[3];
  const Mode modes[3] = {Mode::kDenseFloat, Mode::kDenseHalf,
                         Mode::kSparseHalf};
  const char* mode_names[3] = {"dense_float", "dense_half", "sparse_half"};
  for (int i = 0; i < 3; ++i) {
    char case_name[48];
    std::snprintf(case_name, sizeof(case_name), "table4 mode=%s",
                  mode_names[i]);
    run_case(case_name, [&] {
      gpusim::Device dev = session.device(std::size_t{6} << 30);
      cfg.mode = modes[i];
      auto r = transformer::run_transformer_forward(dev, cfg, 17);
      thr[i] = r.throughput(clock_hz, cfg.batch);
      mem[i] = static_cast<double>(r.peak_memory_bytes);
    });
  }

  std::printf("%-22s %-14.1f %-14.1f %-14.1f\n", "Throughput (seq/s)", thr[0],
              thr[1], thr[2]);
  std::printf("%-22s %-14s %-14s %-14s\n", "Peak Memory", "", "", "");
  const auto fmt_mem = [](double bytes) {
    static char buf[4][32];
    static int idx = 0;
    char* b = buf[idx++ % 4];
    if (bytes > (1u << 30)) {
      std::snprintf(b, 32, "%.2f GB", bytes / (1u << 30));
    } else {
      std::snprintf(b, 32, "%.1f MB", bytes / (1u << 20));
    }
    return b;
  };
  std::printf("%-22s %-14s %-14s %-14s\n", "", fmt_mem(mem[0]),
              fmt_mem(mem[1]), fmt_mem(mem[2]));

  std::printf("\n# speedups: sparse(half) is %.2fx over dense(float), "
              "%.2fx over dense(half)  (paper: 3.45x / 1.41x)\n",
              thr[2] / thr[0], thr[2] / thr[1]);
  std::printf("# memory reductions: %.2fx vs dense(float), %.2fx vs "
              "dense(half)  (paper: 26.74x / 13.37x)\n",
              mem[0] / mem[2], mem[1] / mem[2]);

  // ---- accuracy substitute: numerical fidelity -----------------------
  transformer::FidelityConfig fcfg;
  fcfg.seq = scale == Scale::kPaper ? 512 : 256;
  fcfg.trials = 20;
  transformer::FidelityReport rep{};
  run_case("table4 fidelity", [&] {
    rep = transformer::measure_fidelity(fcfg, 99);
  });
  std::printf("\n# accuracy substitute (paper: 65.12%% / 65.09%% / 65.01%% "
              "on trained LRA — we measure numerical fidelity instead):\n");
  std::printf("# dense(half)  vs fp32: cosine %.6f, decision agreement "
              "%.0f%%\n",
              rep.dense_half_cosine, rep.dense_half_agreement * 100);
  std::printf("# sparse(half) vs masked fp32: cosine %.6f, decision "
              "agreement %.0f%%, max rel err %.3g\n",
              rep.sparse_half_cosine, rep.sparse_half_agreement * 100,
              rep.sparse_half_max_rel_err);
  return session.finish();
}

}  // namespace
}  // namespace vsparse::bench

int main(int argc, char** argv) { return vsparse::bench::run(argc, argv); }
