// Tests for the benchmark-support library: summaries, suite
// determinism, the dense-baseline cache, and the JSON string escaper
// its case-error lines share with the trace and sanitizer exports.
#include <gtest/gtest.h>

#include <string>

#include "vsparse/bench/runner.hpp"
#include "vsparse/bench/suite.hpp"
#include "vsparse/bench/summary.hpp"
#include "vsparse/common/json.hpp"
#include "vsparse/gpusim/arch.hpp"
#include "vsparse/kernels/dense/gemm.hpp"

namespace vsparse::bench {
namespace {

TEST(JsonEscape, QuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain \xc3\xa9"), "plain \xc3\xa9");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nnext\ttab"), "line\\nnext\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01\x1f\r\0", 4)),
            "\\u0001\\u001f\\u000d\\u0000");
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
}

TEST(Summary, GeomeanAndQuartiles) {
  BoxStats s = summarize({1.0, 2.0, 4.0, 8.0});
  EXPECT_NEAR(s.geomean, 2.8284, 1e-3);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  EXPECT_NEAR(s.median, 3.0, 1e-9);
  EXPECT_EQ(s.count, 4);
}

TEST(Summary, SingleSample) {
  BoxStats s = summarize({3.5});
  EXPECT_DOUBLE_EQ(s.geomean, 3.5);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
}

TEST(Summary, EmptyIsZero) {
  BoxStats s = summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.geomean, 0.0);
}

TEST(Summary, RejectsNonPositive) {
  EXPECT_THROW(geomean({1.0, 0.0}), CheckError);
}

TEST(Suite, DeterministicConstruction) {
  Cvs a = make_suite_cvs({512, 256}, 0.9, 4);
  Cvs b = make_suite_cvs({512, 256}, 0.9, 4);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.col_idx, b.col_idx);
  EXPECT_EQ(a.values.size(), b.values.size());
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i].bits(), b.values[i].bits());
  }
}

TEST(Suite, BlockedEllTwinMatchesSparsity) {
  Cvs cvs = make_suite_cvs({512, 256}, 0.9, 4);
  BlockedEll ell = make_suite_blocked_ell({512, 256}, 0.9, 4);
  EXPECT_EQ(ell.rows, cvs.rows);
  EXPECT_EQ(ell.cols, cvs.cols);
  EXPECT_NEAR(ell.sparsity(), cvs.sparsity(), 0.05);
}

TEST(Suite, ScalesDiffer) {
  EXPECT_LT(suite_shapes(Scale::kSmall).size(),
            suite_shapes(Scale::kPaper).size());
}

TEST(DenseBaselineCache, MemoizesAndIsConsistent) {
  DenseBaseline base;
  const double a = base.hgemm_cycles(256, 128, 128);
  const double b = base.hgemm_cycles(256, 128, 128);
  EXPECT_DOUBLE_EQ(a, b);
  // Bigger problems cost more.
  EXPECT_GT(base.hgemm_cycles(512, 128, 128), a);
  // Single precision costs more than half on the same problem.
  EXPECT_GT(base.sgemm_cycles(256, 128, 128), a);
}

/// Model cycles, priced at `hw`, of `gemm` on (MxK)·(KxN) operands of
/// type T on a fresh `hw` device.
template <class T, class Gemm>
double gemm_cycles_on(const gpusim::DeviceConfig& hw, int m, int k, int n,
                      Gemm gemm) {
  gpusim::DeviceConfig cfg = hw;
  cfg.dram_capacity = std::size_t{1} << 30;
  gpusim::Device dev(cfg);
  DenseDevice<T> a{dev.alloc<T>(static_cast<std::size_t>(m) * k), m, k, k,
                   Layout::kRowMajor};
  DenseDevice<T> b{dev.alloc<T>(static_cast<std::size_t>(k) * n), k, n, n,
                   Layout::kRowMajor};
  DenseDevice<T> c{dev.alloc<T>(static_cast<std::size_t>(m) * n), m, n, n,
                   Layout::kRowMajor};
  return gemm(dev, a, b, c).cycles(hw);
}

// Under --arch the dense baseline runs on that architecture's device
// (its SM count and L2), not just at its prices: DenseBaseline on the
// turing-t4 preset equals the cuBLAS stand-ins run on a T4 device and
// priced at T4, for a Fig. 17 small-scale GEMM.
TEST(DenseBaselineCache, RunsOnTheArchitectureItPricesAt) {
  const gpusim::DeviceConfig t4 =
      gpusim::find_arch_preset("turing-t4")->make();
  const Shape shape = suite_shapes(Scale::kSmall).back();
  const int m = shape.m, k = shape.k, n = 256;
  DenseBaseline base(t4);
  EXPECT_EQ(base.hgemm_cycles(m, k, n),
            gemm_cycles_on<half_t>(t4, m, k, n, [](auto&... args) {
              return kernels::hgemm_tcu(args...);
            }));
  EXPECT_EQ(base.sgemm_cycles(m, k, n),
            gemm_cycles_on<float>(t4, m, k, n, [](auto&... args) {
              return kernels::sgemm_fpu(args...);
            }));
}

}  // namespace
}  // namespace vsparse::bench
