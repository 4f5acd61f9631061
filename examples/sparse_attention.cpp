// Sparse self-attention demo (§7.4): builds the paper's banded+random
// attention mask at 8x1 grain, runs one attention head through the
// SDDMM -> sparse softmax -> SpMM pipeline, compares against the dense
// head, and prints the latency breakdown Fig. 20 reports.
//
// Usage: sparse_attention [seq] [head_dim] [sparsity]
//   seq and head_dim positive multiples of 64; sparsity in [0, 1).
#include <cstdio>
#include <stdexcept>

#include "args.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/transformer/attention.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace vsparse;
  const int seq = examples::positive_arg(argc, argv, 1, "seq", 1024);
  const int d = examples::positive_arg(argc, argv, 2, "head_dim", 64);
  const double sparsity = examples::sparsity_arg(argc, argv, 3, 0.9);
  if (seq % 64 != 0 || d % 64 != 0) {
    throw std::invalid_argument("seq and head_dim must be multiples of 64");
  }

  Rng rng(7);
  DenseMatrix<half_t> q(seq, d), k(seq, d), v(seq, d);
  q.fill_random(rng, -0.5f, 0.5f);
  k.fill_random(rng, -0.5f, 0.5f);
  v.fill_random(rng, -0.5f, 0.5f);
  Cvs mask = make_attention_mask(seq, /*v=*/8, /*band=*/256, sparsity, rng);
  std::printf("attention: seq=%d head_dim=%d mask %.1f%% sparse "
              "(band 256 + random, 8x1 grain)\n",
              seq, d, mask.sparsity() * 100);

  gpusim::DeviceConfig hw;
  gpusim::Device dev;
  auto dq = to_device(dev, q);
  auto dk = to_device(dev, k);
  auto dv = to_device(dev, v);
  auto dmask = to_device(dev, mask);
  auto scratch = dev.alloc<half_t>(mask.values.size());
  DenseMatrix<half_t> out(seq, d);
  auto dout = to_device(dev, out);

  auto sp = transformer::sparse_attention_head(dev, dq, dk, dv, dmask,
                                               scratch, dout);

  DenseMatrix<half_t> scores(seq, seq);
  auto dscores = to_device(dev, scores);
  DenseMatrix<half_t> out2(seq, d);
  auto dout2 = to_device(dev, out2);
  auto de = transformer::dense_attention_head(dev, dq, dk, dv, dscores,
                                              dout2);

  const auto kc = [&](const kernels::KernelRun& r) {
    return r.cycles(hw) / 1000.0;
  };
  std::printf("\n%-10s %10s %10s %10s %10s\n", "", "QK^T", "Softmax", "AV",
              "total");
  std::printf("%-10s %9.1fk %9.1fk %9.1fk %9.1fk\n", "dense", kc(de.qk),
              kc(de.softmax), kc(de.av),
              de.total_cycles(hw) / 1000.0);
  std::printf("%-10s %9.1fk %9.1fk %9.1fk %9.1fk\n", "sparse", kc(sp.qk),
              kc(sp.softmax), kc(sp.av),
              sp.total_cycles(hw) / 1000.0);
  std::printf("\nattention-core speedup: %.2fx; scores memory: %.1f MB "
              "dense vs %.2f MB sparse\n",
              de.total_cycles(hw) / sp.total_cycles(hw),
              static_cast<double>(seq) * seq * 2 / (1 << 20),
              static_cast<double>(mask.values.size()) * 2 / (1 << 20));

  // Sanity: the two heads agree where the mask is dense (the band).
  DenseMatrix<half_t> o1 = from_device(dout);
  double band_dot = 0, band_norm = 0;
  DenseMatrix<half_t> o2 = from_device(dout2);
  for (int j = 0; j < d; ++j) {
    const double x = static_cast<float>(o1.at(0, j));
    const double y = static_cast<float>(o2.at(0, j));
    band_dot += x * y;
    band_norm += y * y;
  }
  std::printf("row-0 sparse/dense projection ratio: %.3f (differs because "
              "the mask prunes attention, by design)\n",
              band_norm > 0 ? band_dot / band_norm : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return examples::run_example("sparse_attention",
                               [&] { return run(argc, argv); });
}
