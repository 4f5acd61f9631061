// Per-SM hazard detection state: the shadow memory the warp ops feed
// while a sanitized launch runs.
//
// Ownership mirrors SmTrace: the engine creates one SmSanitizer per
// active SM per launch, attaches it to the SmContext, and merges the
// per-SM report lists in SM-id order at launch end.  Each instance is
// only ever touched by the host worker executing that SM's CTA list,
// so there is no synchronization anywhere — and because per-SM CTA
// order is fixed by the scheduler, the report list is bit-identical
// for any host thread count.  Like SmContext, each instance is aligned
// to a host cache line so neighbouring SMs never share one.
//
// Epoch semantics (racecheck).  Warps of a CTA execute phase-by-phase;
// the data a warp may safely consume from another warp is whatever was
// published before the barrier separating their phases.  We count each
// warp's barrier *arrivals*: `Cta::sync()` arrives every warp at once,
// `Warp::bar_sync(mask)` arrives one warp.  Every smem access is
// stamped with its warp's own arrival count — its barrier epoch.  Two
// accesses to the same byte from *different* warps in the *same* epoch,
// at least one a write, were not ordered by any barrier: that is a
// hazard, reported with both op sites.  (A warp is always ordered with
// itself, so same-warp pairs are never hazards.)
//
// Shadow state is generation-stamped: `gen_` bumps at each CTA start,
// and a shadow byte whose `gen` field disagrees is logically empty —
// an O(1) per-CTA clear of what can be a multi-megabyte array.
#pragma once

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/sanitizer/options.hpp"
#include "vsparse/gpusim/sanitizer/report.hpp"
#include "vsparse/gpusim/stats.hpp"

namespace vsparse::gpusim {

class SmTrace;

class alignas(kHostCacheLineBytes) SmSanitizer {
 public:
  /// `allocs` is the launch-wide allocation snapshot (sorted by
  /// address), shared read-only across SMs; must outlive the launch.
  SmSanitizer(int sm_id, const SanitizerOptions& opts,
              const std::vector<AllocRecord>* allocs,
              std::size_t smem_bytes);

  /// Mirror reports into this SM's trace buffer (optional; engine wires
  /// it when the launch is traced as well as sanitized).
  void set_trace(SmTrace* trace) { trace_ = trace; }

  // -- engine lifecycle hooks -------------------------------------------
  void on_cta_begin(int cta_id, int num_warps);
  void on_cta_end();

  // -- barrier hooks (synccheck + epoch advance) ------------------------
  /// Cta::sync(): every warp arrives together; never divergent.
  void on_cta_sync();
  /// Warp::bar_sync(mask): one warp arrives; a partial mask is a
  /// divergent barrier, and unequal per-warp arrival counts at CTA end
  /// are a barrier mismatch.
  void on_bar_arrive(int warp, std::uint32_t mask);

  // -- memory hooks (racecheck / initcheck / boundscheck) ---------------
  /// `len` = sizeof the per-lane value; offsets/addresses are the same
  /// lane arrays the warp op is about to execute with.
  void on_smem_load(int warp, const Lanes<std::uint32_t>& off,
                    std::uint32_t mask, std::uint32_t len);
  void on_smem_store(int warp, const Lanes<std::uint32_t>& off,
                     std::uint32_t mask, std::uint32_t len);

  void on_global_load(int warp, const AddrLanes& addr, std::uint32_t mask,
                      std::uint32_t len);
  void on_global_store(int warp, const AddrLanes& addr, std::uint32_t mask,
                       std::uint32_t len);

  // -- results ----------------------------------------------------------
  const std::vector<SanitizerReport>& reports() const { return reports_; }
  std::uint64_t suppressed() const { return suppressed_; }

  /// Dedup identity of a report: hazard kind, location, and both sites'
  /// (warp, op) — deliberately excluding CTA/SM/epoch so the same bug
  /// repeating across CTAs collapses to one report.  Shared with the
  /// engine's cross-SM merge.
  using Key = std::tuple<std::uint8_t, std::uint64_t, std::int32_t,
                         std::uint8_t, std::int32_t, std::uint8_t>;
  static Key key(const SanitizerReport& r) {
    return {static_cast<std::uint8_t>(r.kind), r.addr, r.first.warp,
            static_cast<std::uint8_t>(r.first.op), r.second.warp,
            static_cast<std::uint8_t>(r.second.op)};
  }

 private:
  /// One byte of shared memory, as the race/init tools see it: the most
  /// recent writer and the most recent reader this CTA, each with their
  /// barrier epoch and op site.  Single-slot per direction — a hazard
  /// against an *older* same-direction access from a third warp can go
  /// unreported, which trades completeness for O(1) state exactly the
  /// way hardware race detectors do.  `gen` ties the record to the
  /// current CTA (see header comment).
  struct ByteShadow {
    std::uint64_t w_site = 0;
    std::uint64_t r_site = 0;
    std::uint32_t gen = 0;
    std::uint32_t w_epoch = 0;
    std::uint32_t r_epoch = 0;
    std::int16_t w_warp = -1;
    std::int16_t r_warp = -1;
    Op w_op = Op::kMisc;
    Op r_op = Op::kMisc;
  };

  /// Record (dedup'd, capped) and optionally trace-mirror a report.
  void deliver(SanitizerReport&& r);

  /// Largest snapshot entry with base <= addr, or nullptr.
  const AllocRecord* find_alloc(std::uint64_t addr) const;
  void check_global(int warp, const AddrLanes& addr, std::uint32_t mask,
                    std::uint32_t len, Op op);

  int sm_id_;
  SanitizerOptions opts_;
  const std::vector<AllocRecord>* allocs_;
  std::size_t smem_bytes_;
  SmTrace* trace_ = nullptr;

  std::vector<ByteShadow> shadow_;  ///< one per smem byte, on first use
  std::uint32_t gen_ = 0;           ///< current CTA generation
  int cta_id_ = -1;
  std::vector<std::uint32_t> arrivals_;  ///< per-warp barrier arrival count
  std::uint64_t cta_op_ = 0;  ///< index into the CTA's sanitized op stream

  std::set<Key> seen_;
  std::vector<SanitizerReport> reports_;
  std::uint64_t suppressed_ = 0;
};

}  // namespace vsparse::gpusim
