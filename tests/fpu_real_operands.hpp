// Real-valued operands for the FPU subwarp SpMM tests.  Small-integer
// operands make every fp32 product and partial sum exact, so a kernel
// that regrouped or reordered its accumulation would still match the
// reference.  With B and the nonzero values uniform in (-1, 1) nearly
// every add rounds, so only the references' fold order (one += a*b per
// nonzero, in storage order, into each output) reproduces their bits.
// Used by spmm_baselines_test.cpp and kernel_param_sweep_test.cpp.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"

namespace vsparse::kernels {

/// Runs spmm_fpu_subwarp and spmm_fpu_subwarp_f32 with `params` on one
/// 64 x 256 CVS pattern (vector length `v`) times a 256 x 64 B, both
/// with operands uniform in (-1, 1), and compares every output bit with
/// spmm_reference (half) and with spmm_csr_reference on the pattern's
/// rows expanded to CSR (float).  The float run draws fresh fp32 values,
/// so its products round too.  Single precision caps tile_n at 32
/// (16 B per lane); wider tiles run the half kernel only.
inline void expect_fpu_real_operands_bit_exact(int v, double sparsity,
                                               const SpmmFpuParams& params,
                                               std::uint64_t seed) {
  constexpr int kM = 64, kK = 256, kN = 64;
  SCOPED_TRACE(::testing::Message()
               << "real operands: v=" << v << " sparsity=" << sparsity
               << " tile_n=" << params.tile_n << " tile_k=" << params.tile_k);
  Rng rng(seed);
  Cvs a = make_cvs(kM, kK, v, sparsity, rng);
  for (half_t& h : a.values) h = half_t(rng.uniform_float(-1.0f, 1.0f));
  DenseMatrix<half_t> b(kK, kN);
  for (half_t& h : b.data()) h = half_t(rng.uniform_float(-1.0f, 1.0f));
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 64 << 20;
  cfg.num_sms = 8;
  gpusim::Device dev(cfg);

  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  DenseMatrix<half_t> ch(kM, kN);
  auto dc = to_device(dev, ch);
  spmm_fpu_subwarp(dev, da, db, dc, params);
  const DenseMatrix<half_t> got = from_device(dc);
  const DenseMatrix<half_t> want = spmm_reference(a, b);
  for (int r = 0; r < kM; ++r) {
    for (int j = 0; j < kN; ++j) {
      ASSERT_EQ(got.at(r, j).bits(), want.at(r, j).bits())
          << "half (" << r << "," << j << ")";
    }
  }
  if (params.tile_n > 32) return;

  // Vector row vr's lane t is CSR row vr*v + t: the same columns, the
  // t-th value of each vector, in storage order.
  std::vector<float> values(a.values.size());
  for (float& f : values) f = rng.uniform_float(-1.0f, 1.0f);
  Csr<float> af;
  af.rows = kM;
  af.cols = kK;
  af.row_ptr.push_back(0);
  for (int vr = 0; vr < a.vec_rows(); ++vr) {
    for (int t = 0; t < v; ++t) {
      for (std::int32_t i = a.row_ptr[static_cast<std::size_t>(vr)];
           i < a.row_ptr[static_cast<std::size_t>(vr) + 1]; ++i) {
        af.col_idx.push_back(a.col_idx[static_cast<std::size_t>(i)]);
        af.values.push_back(values[static_cast<std::size_t>(i) *
                                       static_cast<std::size_t>(v) +
                                   static_cast<std::size_t>(t)]);
      }
      af.row_ptr.push_back(static_cast<std::int32_t>(af.col_idx.size()));
    }
  }
  DenseMatrix<float> bf(kK, kN);
  for (float& f : bf.data()) f = rng.uniform_float(-1.0f, 1.0f);
  CvsDeviceT<float> daf{dev.alloc_copy<std::int32_t>(a.row_ptr),
                        dev.alloc_copy<std::int32_t>(a.col_idx),
                        dev.alloc_copy<float>(values), kM, kK, v};
  auto dbf = to_device(dev, bf);
  DenseMatrix<float> cf(kM, kN);
  auto dcf = to_device(dev, cf);
  spmm_fpu_subwarp_f32(dev, daf, dbf, dcf, params);
  const DenseMatrix<float> gotf = from_device(dcf);
  const DenseMatrix<float> wantf = spmm_csr_reference(af, bf);
  for (int r = 0; r < kM; ++r) {
    for (int j = 0; j < kN; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(gotf.at(r, j)),
                std::bit_cast<std::uint32_t>(wantf.at(r, j)))
          << "float (" << r << "," << j << ") got " << gotf.at(r, j)
          << " want " << wantf.at(r, j);
    }
  }
}

}  // namespace vsparse::kernels
