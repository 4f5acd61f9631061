// Per-launch hardware counters.
//
// These are the quantities nsight-compute reports and the paper's
// analysis is written in terms of: executed-instruction histogram
// (HMMA vs HMUL+FADD vs integer address arithmetic, §3.1/§7.2.2),
// global-memory sectors & requests ("Sectors/Req", Tables 2-3), L1
// missed sectors (Fig. 5), bytes moved L2->L1 (Fig. 18), and
// shared-memory traffic (the "Short Scoreboard" analysis of §3.2).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace vsparse::gpusim {

/// Instruction classes tracked by the simulator.  Counts are
/// *warp-level executed instructions* (one issue slot each), matching
/// what nsight's instruction statistics report.
enum class Op : std::uint8_t {
  kHmma = 0,   ///< HMMA.884 step (tensor core)
  kHfma,       ///< HFMA2 / HMUL (fp16 FPU math)
  kFfma,       ///< FFMA / FADD / FMUL (fp32 FPU math)
  kImad,       ///< IMAD (integer multiply-add, address arithmetic)
  kIadd3,      ///< IADD3 (3-input integer add)
  kLdg,        ///< global load (any width; width histogram kept separately)
  kStg,        ///< global store
  kLds,        ///< shared-memory load
  kSts,        ///< shared-memory store
  kShfl,       ///< warp shuffle
  kBar,        ///< barrier / memory fence
  kCvt,        ///< precision conversion (F2F.F32.F16 etc.)
  kMisc,       ///< everything else (predicates, branches, moves)
  kNumOps
};

constexpr int kNumOps = static_cast<int>(Op::kNumOps);

/// Human-readable mnemonic for an Op.
const char* op_name(Op op);

/// Counter block filled in while a kernel executes on the simulator.
struct KernelStats {
  // --- executed instructions (warp level) -----------------------------
  std::uint64_t ops[kNumOps] = {};

  // --- global-load width histogram (guideline V) ----------------------
  std::uint64_t ldg16 = 0;   ///< 16-bit per-thread loads
  std::uint64_t ldg32 = 0;   ///< LDG.32
  std::uint64_t ldg64 = 0;   ///< LDG.64
  std::uint64_t ldg128 = 0;  ///< LDG.128

  // --- global memory traffic ------------------------------------------
  std::uint64_t global_load_requests = 0;   ///< warp-level LDG requests
  std::uint64_t global_load_sectors = 0;    ///< 32B sectors touched
  std::uint64_t global_store_requests = 0;
  std::uint64_t global_store_sectors = 0;
  std::uint64_t l1_sector_hits = 0;
  std::uint64_t l1_sector_misses = 0;   ///< "L1$ Missed Sectors" (Fig. 5)
  std::uint64_t l2_sector_hits = 0;
  std::uint64_t l2_sector_misses = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;

  // --- shared memory ---------------------------------------------------
  std::uint64_t smem_load_requests = 0;
  std::uint64_t smem_store_requests = 0;
  std::uint64_t smem_load_bytes = 0;
  std::uint64_t smem_store_bytes = 0;
  std::uint64_t smem_wavefronts = 0;  ///< bank-conflict-expanded accesses

  // --- launch shape ------------------------------------------------------
  std::uint64_t ctas_launched = 0;
  std::uint64_t warps_launched = 0;

  // --- fault injection (gpusim/faults.hpp; all zero with no FaultPlan) --
  std::uint64_t faults_injected = 0;  ///< upsets applied to read data
  std::uint64_t faults_masked = 0;    ///< ECC-corrected single-bit upsets
  std::uint64_t faults_detected = 0;  ///< ECC double-bit detections (EccError)

  std::uint64_t& op(Op o) { return ops[static_cast<int>(o)]; }
  std::uint64_t op(Op o) const { return ops[static_cast<int>(o)]; }

  /// Total executed warp instructions across all classes.
  std::uint64_t total_instructions() const;

  /// Math instructions (HMMA + HFMA + FFMA), the Fig. 5 right panel.
  std::uint64_t math_instructions() const;

  /// Bytes transferred from L2 to L1 = missed sectors * 32 B (Fig. 18).
  std::uint64_t bytes_l2_to_l1() const { return l1_sector_misses * 32; }

  /// Average sectors per global load request ("Sectors/Req", Tables 2-3).
  double sectors_per_request() const;

  /// Ratio of shared-memory to global load requests (§3.2's
  /// "smem load requests / global load requests" diagnostic).
  double smem_to_global_load_ratio() const;

  /// Element-wise accumulate (for multi-kernel pipelines, and the
  /// engine's per-SM -> per-launch merge; uint64 sums make the merge
  /// order-independent).
  KernelStats& operator+=(const KernelStats& other);

  /// Equality over the SM-local counters: everything except the L2
  /// hit/miss split and DRAM bytes.  Those four also depend on what the
  /// L2 held before the launch, so serving verify — which compares a
  /// long-lived device's run against a freshly reset reference device
  /// — compares only the SM-local rest.  (Every counter, these four
  /// included, is independent of the host thread count.)
  bool sm_local_equal(const KernelStats& other) const;

  /// Multi-line human-readable dump.
  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const KernelStats& s);

}  // namespace vsparse::gpusim
