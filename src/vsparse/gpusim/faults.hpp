// Deterministic fault injection, the ECC model, and the structured
// errors of the fault-tolerance subsystem.
//
// A real V100 cannot flip a DRAM bit on demand; the simulator can, and
// deterministically.  A FaultPlan describes *which* upsets happen —
// targeted single/multi-bit flips at specific device addresses plus
// rate-based random upsets per injection site — and is attached to a
// Device with Device::set_fault_plan().  The engine's warp ops consult
// the plan behind a null-pointer fast path, so with no plan attached
// the simulation is bit- and counter-identical to a build without this
// subsystem.
//
// Injection sites (FaultSite):
//   * kDramRead — data returned by a global load (LDG), modeling an
//     upset in the DRAM cell / on the return path.
//   * kMmaFrag  — an operand register fragment of a tensor-core MMA.
//
// ECC model: when FaultPlan::ecc is set, the DRAM site gets SEC-DED
// semantics — a single-bit upset is corrected in flight (counted as
// masked, data untouched) and a double-bit upset is *detected*: the
// load raises EccError instead of silently corrupting data.  Register
// fragments are not ECC-protected in this model.
//
// Determinism contract (see DESIGN.md "Fault model"): every injection
// decision is a pure function of (plan seed, site, sm_id, that SM's
// per-site access counter) or, for targets, of the per-(target, SM)
// armed state.  Per-SM access sequences are bit-reproducible for any
// host thread count (the engine's sharding contract), so the same seed
// and plan produce the identical fault set at any --threads=N.
//
// Targeted faults are transient upsets: a target fires at most once
// per SM (per arm), and the armed state persists across launches so an
// ABFT recompute of a corrupted tile observes clean data — exactly the
// transient-upset scenario ABFT recovers from.  A `sticky` target
// models a hard (stuck-at-toggle) fault instead and fires on every
// matching access.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::gpusim {

struct KernelStats;
class SmTrace;

/// Where in the modeled machine a fault strikes.  The values are fixed:
/// a site's value seeds its rate decisions and is the `site` field of
/// exported fault trace events.
enum class FaultSite : std::uint8_t {
  kDramRead = 0,  ///< global-load data (DRAM cell / return path)
  kMmaFrag = 3,   ///< tensor-core operand register fragment
};

/// Human-readable site name ("dram", "mma").
const char* fault_site_name(FaultSite site);

/// A detected-uncorrectable ECC event: a double-bit upset on a DRAM
/// read with ECC enabled.  Carries the site and the device address
/// of the poisoned word so callers can map it back to an operand.
/// Classified ErrorCode::kEccUncorrectable (retryable — the upset may
/// be transient) in the serving taxonomy.
class EccError : public vsparse::Error {
 public:
  EccError(FaultSite site, std::uint64_t addr, int sm_id);

  FaultSite site() const { return site_; }
  std::uint64_t addr() const { return addr_; }
  int sm_id() const { return sm_id_; }

 private:
  FaultSite site_;
  std::uint64_t addr_;
  int sm_id_;
};

/// A launch exceeded its per-CTA op budget (SimOptions::watchdog_cta_ops):
/// some CTA body issued more warp ops than the watchdog allows, which in
/// this simulator is the signature of a malformed pattern (e.g. a cyclic
/// row_ptr) driving a kernel loop forever.  The engine augments the
/// message with a per-SM progress dump before rethrowing.  Classified
/// ErrorCode::kLaunchTimeout (not retryable — the same launch would
/// time out again — but fallback-eligible) in the serving taxonomy.
class LaunchTimeoutError : public vsparse::Error {
 public:
  explicit LaunchTimeoutError(const std::string& what)
      : vsparse::Error(ErrorCode::kLaunchTimeout, "gpusim.watchdog", what) {}
};

/// One targeted upset.  `addr` is a device byte address for kDramRead
/// and a per-SM MMA call index for kMmaFrag.  `bit` selects the bit
/// within that byte (kDramRead) or the flat bit index into the
/// concatenated A|B fragment bytes (kMmaFrag); `n_bits` adjacent bits
/// are flipped, so n_bits == 2 exercises the SEC-DED
/// detected-uncorrectable path.
struct FaultTarget {
  FaultSite site = FaultSite::kDramRead;
  std::uint64_t addr = 0;
  int bit = 0;
  int n_bits = 1;
  bool sticky = false;  ///< hard fault: fire on every matching access
};

/// Per-site random upset probabilities (per lane value read for
/// kDramRead, per MMA call for kMmaFrag).  Rate faults are single-bit;
/// the flipped bit is chosen by the decision hash.
struct FaultRates {
  double dram_read = 0.0;
  double mma_frag = 0.0;
};

/// A seeded, deterministic description of every fault a device will
/// experience.  Attach with Device::set_fault_plan(&plan); the plan
/// must outlive the attachment.  The plan carries the cross-launch
/// armed state of targeted faults and process-lifetime totals of
/// injected/masked/detected upsets (the per-launch split of the same
/// events lands in KernelStats).
class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed = 0, bool ecc_enabled = false);

  // -- configuration ---------------------------------------------------
  void add_target(const FaultTarget& target);
  void set_rates(const FaultRates& rates) { rates_ = rates; }
  void set_ecc(bool on) { ecc_ = on; }

  std::uint64_t seed() const { return seed_; }
  bool ecc() const { return ecc_; }
  const FaultRates& rates() const { return rates_; }
  const std::vector<FaultTarget>& targets() const { return targets_; }

  /// Size the per-(target, SM) armed state.  Called by
  /// Device::set_fault_plan; idempotent for the same SM count.
  void prepare(int num_sms);

  // -- process-lifetime totals (survive an EccError unwind) ------------
  std::uint64_t injected() const { return injected_.load(std::memory_order_relaxed); }
  std::uint64_t masked() const { return masked_.load(std::memory_order_relaxed); }
  std::uint64_t detected() const { return detected_.load(std::memory_order_relaxed); }

  void note_injected() { injected_.fetch_add(1, std::memory_order_relaxed); }
  void note_masked() { masked_.fetch_add(1, std::memory_order_relaxed); }
  void note_detected() { detected_.fetch_add(1, std::memory_order_relaxed); }

 private:
  friend struct FaultState;

  /// The per-(target, SM) armed flag; each slot is only ever touched by
  /// the host thread executing that SM, so plain bytes suffice.
  std::uint8_t& fired(std::size_t target, int sm_id) {
    return fired_[target * static_cast<std::size_t>(num_sms_) +
                  static_cast<std::size_t>(sm_id)];
  }

  std::uint64_t seed_;
  bool ecc_;
  FaultRates rates_;
  std::vector<FaultTarget> targets_;
  int num_sms_ = 0;
  std::vector<std::uint8_t> fired_;
  std::atomic<std::uint64_t> injected_{0};
  std::atomic<std::uint64_t> masked_{0};
  std::atomic<std::uint64_t> detected_{0};
};

/// Per-SM injection state for one launch: the plan pointer (null when
/// no plan is attached — the fast path the warp ops branch on) plus
/// this SM's per-site access counters, which drive the deterministic
/// rate decisions.  Lives inside SmContext; born fresh each launch.
struct FaultState {
  FaultPlan* plan = nullptr;
  int sm_id = 0;
  SmTrace* trace = nullptr;  ///< per-launch trace buffer (null = untraced)
  std::uint64_t dram_reads = 0;  ///< lane values this SM's loads returned
  std::uint64_t mma_calls = 0;   ///< MMAs this SM issued

  /// Global-load return data: applies kDramRead faults to the `len`
  /// bytes at `data` read from device address `addr`.  Corrects/detects
  /// per the ECC model; throws EccError on a detected double-bit upset.
  void on_global_read(std::uint64_t addr, void* data, std::size_t len,
                      KernelStats& stats);

  /// Tensor-core operand fragments, as raw bytes (A then B).  Callers
  /// pass mutable copies of the fragments.
  void on_mma_frags(void* a, std::size_t a_len, void* b, std::size_t b_len,
                    KernelStats& stats);
};

}  // namespace vsparse::gpusim
