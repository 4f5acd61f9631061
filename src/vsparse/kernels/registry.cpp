#include "vsparse/kernels/registry.hpp"

#include <algorithm>

#include "vsparse/gpusim/device.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/sddmm/sddmm_csr_fine.hpp"
#include "vsparse/kernels/sddmm/sddmm_fpu.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/sddmm/sddmm_wmma.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_csr_fine.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"
#include "vsparse/kernels/spmm/spmm_octet_abft.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::kernels {

namespace {

constexpr std::uint16_t v_set(int a) {
  return static_cast<std::uint16_t>(1u << a);
}
constexpr std::uint16_t kVTcu = v_set(2) | v_set(4) | v_set(8);
constexpr std::uint16_t kVAll = v_set(1) | kVTcu;
constexpr std::uint16_t kVScalar = v_set(1);

// ---- eligibility predicates -------------------------------------------
// Byte-for-byte the constraints the Supervisor's hard-coded
// spmm_rung_eligible/sddmm_rung_eligible encoded before the registry;
// serve_test's ladder expectations pin them.

bool tcu_64col(const DispatchShape& s) { return s.v >= 2 && s.n % 64 == 0; }

bool dense_tiles(const DispatchShape& s) {
  return s.m % 64 == 0 && s.n % 64 == 0 && s.k % 16 == 0;
}

bool fpu_16col(const DispatchShape& s) { return s.n % 16 == 0; }

bool scalar_32col(const DispatchShape& s) {
  return s.v == 1 && s.n % 32 == 0;
}

bool sddmm_tcu(const DispatchShape& s) { return s.v >= 2; }

bool sddmm_any(const DispatchShape&) { return true; }

bool sddmm_scalar(const DispatchShape& s) { return s.v == 1; }

// ---- launch thunks -----------------------------------------------------

KernelRun run_spmm_octet(const SpmmCall& c) {
  return spmm_octet(c.dev, c.a, c.b, c.c, {}, c.sim);
}

KernelRun run_spmm_octet_abft(const SpmmCall& c) {
  VSPARSE_CHECK(c.abft != nullptr);
  return spmm_octet_abft(c.dev, c.a, c.b, c.c, {}, *c.abft, c.sim);
}

KernelRun run_spmm_fpu(const SpmmCall& c) {
  return spmm_fpu_subwarp(c.dev, c.a, c.b, c.c, {}, c.sim);
}

KernelRun run_spmm_csr_fine(const SpmmCall& c) {
  return spmm_csr_fine(c.dev, c.a, c.b, c.c, c.sim);
}

KernelRun run_spmm_blocked_ell(const SpmmCall& c) {
  VSPARSE_CHECK(c.ell != nullptr);  // caller re-encodes (serve ladder)
  return spmm_blocked_ell(c.dev, *c.ell, c.b, c.c, c.sim);
}

KernelRun run_spmm_dense_gemm(const SpmmCall& c) {
  VSPARSE_CHECK(c.dense_a != nullptr);  // caller decodes (serve ladder)
  return hgemm_tcu(c.dev, *c.dense_a, c.b, c.c, {}, c.sim);
}

KernelRun run_sddmm_octet(const SddmmCall& c) {
  SddmmOctetParams params;
  // The Fig. 15 architecture point: on a TCU with the HMMA...SWITCH
  // extension the inverted-pattern fix is free, so the registry picks
  // the "mma (arch)" variant.  Every shipping preset leaves the flag
  // off and gets the paper's default "mma (reg)".
  if (c.dev.config().hmma_switch) {
    params.mode = InvertedPatternMode::kArchSwitch;
  }
  return sddmm_octet(c.dev, c.a, c.b, c.mask, c.out_values, params, c.sim);
}

KernelRun run_sddmm_wmma(const SddmmCall& c) {
  return sddmm_wmma_warp(c.dev, c.a, c.b, c.mask, c.out_values, c.sim);
}

KernelRun run_sddmm_fpu(const SddmmCall& c) {
  return sddmm_fpu_subwarp(c.dev, c.a, c.b, c.mask, c.out_values, {}, c.sim);
}

KernelRun run_sddmm_csr_fine(const SddmmCall& c) {
  return sddmm_csr_fine(c.dev, c.a, c.b, c.mask, c.out_values, c.sim);
}

}  // namespace

const std::vector<KernelDesc>& kernel_registry() {
  // Ladder ranks mirror the pre-registry Supervisor: the octet desc's
  // rung runs *with* ABFT (plain octet re-runs are what retries already
  // spent), SDDMM octet is an entry point but never a fallback, and the
  // two re-encode kernels exist only as rungs (kNoAlgorithm).
  static const std::vector<KernelDesc> kTable = {
      // ---- SpMM ------------------------------------------------------
      {"spmm_octet", KernelOp::kSpmm,
       static_cast<int>(SpmmAlgorithm::kOctet), OperandFormat::kCvs, kVTcu,
       /*has_abft=*/true, /*ladder_rank=*/0, &tcu_64col, &run_spmm_octet,
       &run_spmm_octet_abft, nullptr},
      {"spmm_fpu_subwarp", KernelOp::kSpmm,
       static_cast<int>(SpmmAlgorithm::kFpuSubwarp), OperandFormat::kCvs,
       kVAll, false, /*ladder_rank=*/3, &fpu_16col, &run_spmm_fpu, nullptr,
       nullptr},
      {"spmm_csr_fine", KernelOp::kSpmm,
       static_cast<int>(SpmmAlgorithm::kCsrFine), OperandFormat::kCvs,
       kVScalar, false, /*ladder_rank=*/4, &scalar_32col,
       &run_spmm_csr_fine, nullptr, nullptr},
      {"spmm_blocked_ell", KernelOp::kSpmm, kNoAlgorithm,
       OperandFormat::kBlockedEll, kVTcu, false, /*ladder_rank=*/1,
       &tcu_64col, &run_spmm_blocked_ell, nullptr, nullptr},
      {"spmm_dense_gemm", KernelOp::kSpmm, kNoAlgorithm,
       OperandFormat::kDense, kVAll, false, /*ladder_rank=*/2,
       &dense_tiles, &run_spmm_dense_gemm, nullptr, nullptr},
      // ---- SDDMM -----------------------------------------------------
      {"sddmm_octet", KernelOp::kSddmm,
       static_cast<int>(SddmmAlgorithm::kOctet), OperandFormat::kCvs, kVTcu,
       false, kNotInLadder, &sddmm_tcu, nullptr, nullptr,
       &run_sddmm_octet},
      {"sddmm_wmma_warp", KernelOp::kSddmm,
       static_cast<int>(SddmmAlgorithm::kWmmaWarp), OperandFormat::kCvs,
       kVTcu, false, /*ladder_rank=*/0, &sddmm_tcu, nullptr, nullptr,
       &run_sddmm_wmma},
      {"sddmm_fpu_subwarp", KernelOp::kSddmm,
       static_cast<int>(SddmmAlgorithm::kFpuSubwarp), OperandFormat::kCvs,
       kVAll, false, /*ladder_rank=*/1, &sddmm_any, nullptr, nullptr,
       &run_sddmm_fpu},
      {"sddmm_csr_fine", KernelOp::kSddmm,
       static_cast<int>(SddmmAlgorithm::kCsrFine), OperandFormat::kCvs,
       kVScalar, false, /*ladder_rank=*/2, &sddmm_scalar, nullptr, nullptr,
       &run_sddmm_csr_fine},
  };
  return kTable;
}

const KernelDesc* find_kernel(KernelOp op, int algorithm) {
  if (algorithm == kNoAlgorithm) return nullptr;
  for (const KernelDesc& desc : kernel_registry()) {
    if (desc.op == op && desc.algorithm == algorithm) return &desc;
  }
  return nullptr;
}

const KernelDesc& kernel_for(SpmmAlgorithm algorithm) {
  const KernelDesc* desc =
      find_kernel(KernelOp::kSpmm, static_cast<int>(algorithm));
  VSPARSE_CHECK_RAISE(desc != nullptr, ErrorCode::kBadDispatch,
                      "kernels.registry",
                      "no registered SpMM kernel for algorithm value "
                          << static_cast<int>(algorithm));
  return *desc;
}

const KernelDesc& kernel_for(SddmmAlgorithm algorithm) {
  const KernelDesc* desc =
      find_kernel(KernelOp::kSddmm, static_cast<int>(algorithm));
  VSPARSE_CHECK_RAISE(desc != nullptr, ErrorCode::kBadDispatch,
                      "kernels.registry",
                      "no registered SDDMM kernel for algorithm value "
                          << static_cast<int>(algorithm));
  return *desc;
}

SpmmAlgorithm resolve_auto_spmm(const DispatchShape& shape) {
  return shape.v >= 2 ? SpmmAlgorithm::kOctet : SpmmAlgorithm::kFpuSubwarp;
}

SddmmAlgorithm resolve_auto_sddmm(const DispatchShape& shape) {
  return shape.v >= 2 ? SddmmAlgorithm::kOctet : SddmmAlgorithm::kFpuSubwarp;
}

std::vector<LadderEntry> fallback_ladder(KernelOp op,
                                         const DispatchShape& shape) {
  std::vector<LadderEntry> rungs;
  for (const KernelDesc& desc : kernel_registry()) {
    if (desc.op != op || desc.ladder_rank == kNotInLadder) continue;
    if (!desc.eligible(shape)) continue;
    rungs.push_back({&desc, desc.has_abft});
  }
  std::sort(rungs.begin(), rungs.end(),
            [](const LadderEntry& x, const LadderEntry& y) {
              return x.desc->ladder_rank < y.desc->ladder_rank;
            });
  return rungs;
}

}  // namespace vsparse::kernels
