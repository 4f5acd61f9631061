// Structured hazard reports and the launch-lifetime `Sanitizer` sink.
//
// The per-SM collectors (`SmSanitizer`, shadow.hpp) detect hazards on
// the simulation hot path; at launch end the engine merges them in
// SM-id order — the same scheme `finish_trace` uses — deduplicates
// across SMs, applies the report cap, and delivers one
// `LaunchSanitizerRecord` to the sink.  Because per-SM CTA order is
// fixed by the scheduler regardless of host thread count, the merged
// report list (and therefore the JSON export) is byte-identical across
// `--threads=1/2/8`.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "vsparse/gpusim/sanitizer/options.hpp"
#include "vsparse/gpusim/stats.hpp"

namespace vsparse::gpusim {

/// Which cuda-memcheck-style tool produced a report.
enum class SanitizerTool : std::uint8_t {
  kRace,    ///< racecheck: shared-memory barrier-epoch conflicts
  kSync,    ///< synccheck: divergent / mismatched barriers
  kInit,    ///< initcheck: reads of never-written or freed memory
  kBounds,  ///< boundscheck: smem bounds, device red-zone guards
  kNumTools,
};

const char* sanitizer_tool_name(SanitizerTool tool);

enum class HazardKind : std::uint8_t {
  // racecheck
  kRawRace,  ///< lds observes an sts from another warp, same epoch
  kWarRace,  ///< sts overwrites a byte another warp read, same epoch
  kWawRace,  ///< sts overwrites a byte another warp wrote, same epoch
  // synccheck
  kDivergentBarrier,  ///< Warp::bar_sync under a partial lane mask
  kBarrierMismatch,   ///< warps of one CTA left with unequal barrier counts
  // initcheck
  kUninitSmemRead,      ///< lds of a byte no sts wrote this CTA
  kGlobalUseAfterFree,  ///< ldg/stg inside a freed allocation
  // boundscheck
  kSmemOob,    ///< lds/sts beyond LaunchConfig::smem_bytes
  kGlobalOob,  ///< ldg/stg in the red zone between / past allocations
  kNumHazardKinds,
};

const char* hazard_kind_name(HazardKind kind);

/// Maps a hazard kind back to the tool that owns it (used for tool
/// filtering and the per-tool counts in the JSON export).
SanitizerTool hazard_tool(HazardKind kind);

/// One end of a hazard: which warp issued which op, and where in the
/// CTA's deterministic op stream.  `cta_op` is the index of the op
/// among the CTA's sanitized memory/barrier ops — a stable "line
/// number" for the simulated instruction stream (the same kernel
/// control flow always yields the same index).  warp < 0 means "no
/// site" (e.g. the first site of an uninitialized read has no writer).
struct HazardSite {
  std::int32_t warp = -1;
  Op op = Op::kMisc;
  std::uint64_t cta_op = 0;

  bool operator==(const HazardSite&) const = default;
};

struct SanitizerReport {
  HazardKind kind = HazardKind::kNumHazardKinds;
  std::int32_t sm = -1;   ///< SM the reporting CTA ran on
  std::int32_t cta = -1;  ///< linear CTA id within the grid
  HazardSite first;       ///< earlier op (writer/reader/arrival)
  HazardSite second;      ///< op that completed the hazard
  std::uint64_t addr = 0;     ///< smem byte offset or device address
  std::uint32_t bytes = 0;    ///< contiguous bytes implicated at `addr`
  std::uint32_t epoch = 0;    ///< barrier epoch of `second` (race tools)
  std::string detail;         ///< human-readable specifics

  SanitizerTool tool() const { return hazard_tool(kind); }
  bool operator==(const SanitizerReport&) const = default;
};

/// One line, stable across runs: used by tests and the bench summary.
std::string to_string(const SanitizerReport& report);

/// Everything the sanitizer learned about a single launch.
struct LaunchSanitizerRecord {
  std::string kernel;
  int grid = 0;
  int cta_threads = 0;
  std::size_t smem_bytes = 0;
  bool aborted = false;  ///< launch unwound via an exception
  std::uint64_t suppressed = 0;  ///< deduped-but-over-cap report count
  std::vector<SanitizerReport> reports;

  bool operator==(const LaunchSanitizerRecord&) const = default;
};

/// Process-lifetime sink collecting records across launches, mirroring
/// the `Trace` sink's shape: the engine appends one record per
/// sanitized launch (success or abort); a session exports everything
/// once via `sanitizer_json`.  Thread-safe for the same reason Trace
/// is — concurrent sanitized launches on different devices share one
/// sink in the bench drivers.
class Sanitizer {
 public:
  void add_launch(LaunchSanitizerRecord&& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    launches_.push_back(std::move(record));
  }

  std::vector<LaunchSanitizerRecord> launches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return launches_;
  }

  /// Total merged reports across all launches (excludes suppressed).
  std::uint64_t num_reports() const;

  /// Reports attributed to one tool, across all launches.
  std::uint64_t num_reports(SanitizerTool tool) const;

  std::uint64_t num_launches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return launches_.size();
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    launches_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<LaunchSanitizerRecord> launches_;
};

/// Serializes the sink as schema `vsparse-sanitizer-v1` (validated by
/// tools/validate_sanitizer_report.py).  Deterministic: byte-identical
/// for byte-identical report lists.
std::string sanitizer_json(const Sanitizer& sink);

/// Writes `sanitizer_json` to `path`; returns false on I/O failure.
bool write_sanitizer_report(const Sanitizer& sink, const std::string& path);

/// Parses a `--sanitize=` tool list ("race,sync,init,bounds"; "all" =
/// everything) into `opts` tool flags (sink untouched).  Returns false
/// on an unknown token; `opts` is left with only the tools parsed so
/// far enabled.
bool parse_sanitizer_tools(std::string_view spec, SanitizerOptions* opts);

}  // namespace vsparse::gpusim
