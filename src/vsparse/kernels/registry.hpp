// Kernel registry — the single place every SpMM/SDDMM implementation
// describes itself, and the single source of dispatch policy.
//
// Before this layer, "which kernels exist and when do they apply" was
// written down twice: the enum switches in kernels/dispatch.cpp and
// the Supervisor's hard-coded degradation ladder + eligibility
// predicates in serve/supervisor.cpp.  Each implementation now
// registers one KernelDesc — stable name, op, supported vector
// granularities, operand format, ABFT-variant availability,
// degradation-ladder rank, eligibility predicate, and a type-erased
// launch thunk — and both consumers became queries:
//
//   dispatch   kAuto -> resolve_auto_*(shape), the one selection rule;
//              kernel_for(algorithm) -> desc, desc->spmm_launch(call)
//   serve      the same rule picks the entry rung; ladder(op, shape) =
//              registry in ladder-rank order, filtered by eligibility
//              (serve/supervisor.cpp)
//
// Completeness is enforced the same way as the counter registry: a
// static_assert pins the enum sizes, and registry_test checks every
// SpmmAlgorithm/SddmmAlgorithm value maps to exactly one desc.
#pragma once

#include <cstdint>
#include <vector>

#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/kernels/api.hpp"

namespace vsparse::kernels {

enum class SpmmAlgorithm : std::uint8_t {
  kAuto,        ///< octet for V>=2, FPU subwarp for V=1
  kOctet,       ///< TCU-based 1-D Octet Tiling (§5.3)
  kFpuSubwarp,  ///< Sputnik-extended FPU tiling (§5.1)
  kCsrFine,     ///< fine-grained row-per-warp (cuSPARSE-style, V=1)
  kNumSpmmAlgorithms
};

enum class SddmmAlgorithm : std::uint8_t {
  kAuto,        ///< octet(reg) for V>=2, FPU subwarp for V=1
  kOctet,       ///< §6.3 with the extra-registers inverted-pattern fix
  kWmmaWarp,    ///< §6.2
  kFpuSubwarp,  ///< §6.1
  kCsrFine,     ///< fine-grained (V=1)
  kNumSddmmAlgorithms
};

enum class KernelOp : std::uint8_t { kSpmm, kSddmm };

/// What one dispatch decision can see: the problem shape, the vector
/// granularity, and the stored-fraction density.  Cheap to build from
/// device operands (all fields are O(1) host-side metadata).
struct DispatchShape {
  int m = 0;            ///< output rows
  int k = 0;            ///< contraction extent
  int n = 0;            ///< output columns
  int v = 1;            ///< CVS vector granularity
  double density = 1.0; ///< stored nnz / (rows * cols); 1 = dense
};

/// Which operand encoding a kernel consumes.  Non-CVS kernels are
/// degradation-ladder rungs only: the Supervisor re-encodes the (clean)
/// host copy before invoking them (serve/supervisor.cpp).
enum class OperandFormat : std::uint8_t { kCvs, kBlockedEll, kDense };

/// Operand bundle for a type-erased SpMM launch.  `abft` is set only
/// when the ABFT variant is being invoked; `ell` / `dense_a` carry the
/// re-encoded operand for the matching OperandFormat (the Supervisor
/// materializes them lazily; plain dispatch never reaches those descs).
struct SpmmCall {
  gpusim::Device& dev;
  const CvsDevice& a;
  const DenseDevice<half_t>& b;
  DenseDevice<half_t>& c;
  const gpusim::SimOptions& sim;
  const AbftOptions* abft = nullptr;
  const BlockedEllDevice* ell = nullptr;
  const DenseDevice<half_t>* dense_a = nullptr;
};

/// Operand bundle for a type-erased SDDMM launch.
struct SddmmCall {
  gpusim::Device& dev;
  const DenseDevice<half_t>& a;
  const DenseDevice<half_t>& b;
  const CvsDevice& mask;
  gpusim::Buffer<half_t>& out_values;
  const gpusim::SimOptions& sim;
};

/// A desc with no SpmmAlgorithm/SddmmAlgorithm value: reachable only
/// as a degradation-ladder rung, never by direct dispatch.
inline constexpr int kNoAlgorithm = -1;
/// A desc that is never a fallback rung (dispatch entry only).
inline constexpr int kNotInLadder = -1;

/// One registered kernel implementation.
struct KernelDesc {
  /// Stable id ("spmm_octet"): circuit breakers, repro bundles and
  /// exports key on it, so names must stay unique.
  const char* name;
  KernelOp op;
  /// The SpmmAlgorithm/SddmmAlgorithm value this desc implements (as
  /// int), or kNoAlgorithm for ladder-only re-encode kernels.
  int algorithm;
  OperandFormat format;
  /// Bit v set => vector granularity v supported (v in {1,2,4,8}).
  std::uint16_t v_mask;
  /// An ABFT checksum-recovery variant exists; its ladder rung is
  /// derived from this flag (the desc's ladder_rank runs *with* ABFT —
  /// plain re-runs are what retries already spent).
  bool has_abft;
  /// Canonical degradation-ladder position (lower falls back first),
  /// or kNotInLadder.  The Supervisor's ladder is the registry in this
  /// order, filtered by `eligible` — no second copy of the policy.
  int ladder_rank;
  /// Shape constraints beyond v_mask (output-width alignment etc.).
  /// Used by the serve ladder; plain dispatch defers to the kernels'
  /// own argument checks, exactly as before.
  bool (*eligible)(const DispatchShape& shape);
  /// Launch thunks; null when the op/variant does not apply.
  KernelRun (*spmm_launch)(const SpmmCall& call);
  KernelRun (*spmm_abft_launch)(const SpmmCall& call);
  KernelRun (*sddmm_launch)(const SddmmCall& call);

  bool supports_v(int v) const {
    return v >= 1 && v <= 15 && (v_mask & (1u << v)) != 0;
  }
};

/// Every registered kernel, in canonical order (SpMM descs first, each
/// op's dispatchable descs before its ladder-only ones).
const std::vector<KernelDesc>& kernel_registry();

/// Lookup by (op, algorithm enum value); nullptr for kAuto /
/// kNoAlgorithm / out-of-range values.
const KernelDesc* find_kernel(KernelOp op, int algorithm);

/// Non-null desc for a concrete algorithm; raises kBadDispatch on
/// kAuto (callers resolve auto first).
const KernelDesc& kernel_for(SpmmAlgorithm algorithm);
const KernelDesc& kernel_for(SddmmAlgorithm algorithm);

/// The kAuto rule, unchanged from the pre-registry enum switch: octet
/// for V >= 2, FPU subwarp otherwise.  Dispatch and the Supervisor
/// both resolve kAuto here, so the two always pick the same kernel.
SpmmAlgorithm resolve_auto_spmm(const DispatchShape& shape);
SddmmAlgorithm resolve_auto_sddmm(const DispatchShape& shape);

/// One degradation-ladder rung: a desc, possibly in its ABFT variant.
struct LadderEntry {
  const KernelDesc* desc;
  bool abft;
};

/// The fallback rungs for `shape`, in ladder-rank order, eligibility-
/// filtered.  The entry rung is not included (the Supervisor prepends
/// the requested/auto-selected kernel and skips it here if repeated).
std::vector<LadderEntry> fallback_ladder(KernelOp op,
                                         const DispatchShape& shape);

// The registry must grow in lockstep with the algorithm enums: when a
// value is added below kNum*, registry_test's exactly-once check and
// this count pin force a matching KernelDesc.
inline constexpr int kNumDispatchableSpmm =
    static_cast<int>(SpmmAlgorithm::kNumSpmmAlgorithms) - 1;  // minus kAuto
inline constexpr int kNumDispatchableSddmm =
    static_cast<int>(SddmmAlgorithm::kNumSddmmAlgorithms) - 1;

}  // namespace vsparse::kernels
