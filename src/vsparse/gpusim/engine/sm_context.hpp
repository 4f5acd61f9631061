// Per-SM execution state: everything one model SM mutates while its
// CTAs run.  A fresh SmContext is created for each SM at every launch
// — which is exactly the kernel-boundary L1 invalidation real GPUs
// perform — and is only ever touched by the single host thread that
// executes that SM's CTA list, so nothing here needs synchronization.
// The only state the warp ops share across SMs is the Device's DRAM
// arena (disjoint addresses per CTA, like real hardware).  L2 accesses
// go to this SM's L2Log; the launching thread replays the logs into the
// Device's L2 in CTA order (engine/launch.hpp).
//
// Each SmContext is aligned to a host cache line: a worker writes its
// SM's counters and watchdog on every op, and unaligned neighbours in
// the engine's SmContext array would share lines across workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/stats.hpp"

namespace vsparse::gpusim {

class SmSanitizer;
class SmTrace;

/// One SM's L2 accesses since the last replay, in issue order, plus
/// where each CTA's accesses begin.  An entry is 32 bits: the line
/// index, the line's accessed-sector mask, and a store bit, from high
/// to low; `check_fits` guarantees the packing for a device.  The L2's
/// answer only ever reaches counters, never data or control flow, so
/// deferring it changes no result.
class L2Log {
 public:
  explicit L2Log(const DeviceConfig& cfg);

  /// Throws CheckError unless every line of `cfg`'s arena, with its
  /// sector mask and store bit, packs into one entry.
  static void check_fits(const DeviceConfig& cfg);

  /// Mark the start of the next CTA's accesses.
  void begin_cta() { cta_begin_.push_back(entries_.size()); }

  /// Log an access to the sectors `sectors` of the line at `line_base`
  /// (a line-aligned byte address): a load, or a store if `store`.
  void line(std::uint64_t line_base, std::uint32_t sectors, bool store) {
    VSPARSE_DCHECK((line_base & line_mask_) == 0 && sectors != 0);
    entries_.push_back(
        static_cast<std::uint32_t>((line_base >> line_shift_) << index_shift_) |
        (sectors << 1) | (store ? 1u : 0u));
  }

  /// Log an access to the single 32 B sector at `sector_addr`.
  void sector(std::uint64_t sector_addr, bool store) {
    line(sector_addr & ~line_mask_, 1u << ((sector_addr & line_mask_) >> 5),
         store);
  }

  /// Replay the `slot`-th CTA logged since clear() into `l2`, in issue
  /// order, crediting its L2 hits, misses and DRAM bytes to `stats`.
  void replay(std::size_t slot, SectorCache& l2, KernelStats& stats) const;

  /// Drop the replayed entries (keeping the capacity for the next epoch).
  void clear() {
    entries_.clear();
    cta_begin_.clear();
  }

 private:
  int line_shift_;            ///< log2(line_bytes)
  int index_shift_;           ///< 1 + sectors per line
  std::uint64_t line_mask_;   ///< line_bytes - 1
  std::vector<std::uint32_t> entries_;
  std::vector<std::size_t> cta_begin_;
};

class alignas(kHostCacheLineBytes) SmContext {
 public:
  SmContext(Device* dev, int sm_id);

  int sm_id() const { return sm_id_; }
  Device& device() { return *dev_; }

  /// This SM's private L1 (born cold at launch start).
  SectorCache& l1() { return l1_; }

  /// This SM's L2 accesses awaiting replay.
  L2Log& l2_log() { return l2_log_; }

  /// This SM's private counter block; merged across SMs after the
  /// launch joins (uint64 sums are commutative, so the merge is
  /// order-independent and bit-exact for any thread count).
  KernelStats& stats() { return stats_; }
  const KernelStats& stats() const { return stats_; }

  /// Shared-memory arena for the currently-running CTA, zeroed and
  /// sized to `bytes` (the CTA's static smem) before each CTA starts.
  std::byte* prepare_smem(std::size_t bytes);
  std::byte* smem() { return smem_.data(); }

  /// Fault-injection state for this SM, or nullptr when the device has
  /// no FaultPlan attached — the single-branch fast path the warp ops
  /// test before doing any fault work.
  FaultState* faults() { return faults_.plan != nullptr ? &faults_ : nullptr; }

  /// This SM's trace buffer for the current launch, or nullptr when
  /// tracing is disabled — the same null-pointer fast path as faults().
  SmTrace* trace() { return trace_; }

  /// Attach the per-launch trace buffer (engine only).  Also threads it
  /// into the fault state so ECC events are trace-attributed.
  void set_trace(SmTrace* trace) {
    trace_ = trace;
    faults_.trace = trace;
  }

  /// This SM's sanitizer collector for the current launch, or nullptr
  /// when sanitizing is disabled — the same null-pointer fast path as
  /// faults() and trace().
  SmSanitizer* sanitizer() { return sanitizer_; }
  void set_sanitizer(SmSanitizer* sanitizer) { sanitizer_ = sanitizer; }

  // -- watchdog ---------------------------------------------------------
  /// Arm the per-CTA op budget for this launch (0 = disabled) and reset
  /// the running count at each CTA start.
  void set_watchdog_limit(std::uint64_t ops) { watchdog_limit_ = ops; }
  void watchdog_reset() { watchdog_ops_ = 0; }
  std::uint64_t watchdog_ops() const { return watchdog_ops_; }

  /// Charge `n` warp ops against the current CTA's budget.  Inline and
  /// branch-free in the common (disabled / under-budget) case.
  VSPARSE_ALWAYS_INLINE void watchdog_tick(std::uint64_t n) {
    watchdog_ops_ += n;
    if (watchdog_limit_ != 0 && watchdog_ops_ > watchdog_limit_) [[unlikely]]
      throw_watchdog();
  }

 private:
  [[noreturn]] void throw_watchdog() const;

  Device* dev_;
  int sm_id_;
  SectorCache l1_;
  L2Log l2_log_;
  KernelStats stats_;
  std::vector<std::byte> smem_;
  FaultState faults_;
  SmTrace* trace_ = nullptr;
  SmSanitizer* sanitizer_ = nullptr;
  std::uint64_t watchdog_limit_ = 0;
  std::uint64_t watchdog_ops_ = 0;
};

}  // namespace vsparse::gpusim
