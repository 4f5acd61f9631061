// Structured per-launch trace events — the nsight-systems role for the
// simulator: what happened on which SM, attributed to CTA/warp, on a
// deterministic model-cycle timeline.
//
// Event model.  While a launch runs, each SM appends TraceEvents to a
// private SmTrace buffer — only ever touched by the host worker that
// executes that SM's CTA list, so the buffers are lock-free by
// construction.  Timestamps are the SM's *instruction clock*: the
// cumulative count of warp-level instructions issued on that SM since
// launch start.  Per-SM instruction sequences are bit-reproducible for
// any host thread count (the engine's sharding contract), so the clock
// — and with it the whole merged trace — is deterministic for any
// `threads = N`.
//
// At launch end the engine merges the per-SM buffers in SM-id order
// into one LaunchTrace (launch-scope kKernelBegin/kKernelEnd events
// bracket the SM streams) and hands it to the Trace sink.  Exporters
// (trace/export.hpp) turn a sink into Perfetto/chrome-trace JSON (one
// track per SM) and a machine-readable metrics.json.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/gpusim/stats.hpp"
#include "vsparse/gpusim/trace/options.hpp"

namespace vsparse::gpusim {

enum class TraceEventKind : std::uint8_t {
  kKernelBegin = 0,  ///< launch scope; a = grid, b = cta_threads
  kKernelEnd,        ///< launch scope; cycles = max per-SM clock
  kCtaBegin,         ///< CTA scheduled onto its SM; a = warps
  kCtaEnd,           ///< CTA retired
  kBarrier,          ///< __syncthreads(); a = warps synchronized
  kWarpOp,           ///< sampled warp op; a = Op, b = ops in the batch
  kFaultInjected,    ///< a = FaultSite, b = address / offset / index
  kFaultMasked,      ///< ECC-corrected single-bit upset
  kFaultDetected,    ///< ECC double-bit detection (launch unwinds)
  kWatchdog,         ///< per-CTA op budget exceeded; a = budget
  kLaunchAbort,      ///< launch unwound with an error other than the above
  kAbftVerify,       ///< host-side checksum pass; a = corrupted tiles
  kAbftRecompute,    ///< single-tile recovery launch; a = vec row, b = tile
  kServeRetry,       ///< supervisor re-runs a rung; a = rung, b = attempt
  kServeFallback,    ///< degradation-ladder hop; a = from rung, b = to rung
  kServeGiveUp,      ///< ladder exhausted; a = error code, b = attempts
  kSanitizer,        ///< sanitizer hazard; a = SanitizerTool, b = HazardKind
  kNumEventKinds
};

/// Stable lowercase mnemonic ("cta_begin", "barrier", ...).
const char* trace_event_name(TraceEventKind kind);

struct TraceEvent {
  std::uint64_t cycles = 0;  ///< SM instruction clock (launch scope: see kind)
  std::uint64_t a = 0;       ///< kind-specific payload
  std::uint64_t b = 0;
  std::int32_t cta = -1;     ///< -1 = not CTA-attributed
  std::int16_t sm = -1;      ///< -1 = launch scope
  std::int16_t warp = -1;    ///< -1 = not warp-attributed
  TraceEventKind kind = TraceEventKind::kKernelBegin;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per-SM event buffer for one launch.  Owned by the engine, attached
/// to the SmContext, and appended to only by the worker thread running
/// that SM — no synchronization anywhere on the hot path.  Aligned to a
/// host cache line, like SmContext, so neighbouring SMs' clocks never
/// share one.
class alignas(kHostCacheLineBytes) SmTrace {
 public:
  SmTrace(int sm_id, const TraceOptions& opts)
      : sm_id_(static_cast<std::int16_t>(sm_id)),
        stride_(opts.sample_ops),
        countdown_(opts.sample_ops) {}

  void emit(TraceEventKind kind, int cta, int warp, std::uint64_t a = 0,
            std::uint64_t b = 0) {
    events_.push_back(TraceEvent{cycles_, a, b, cta, sm_id_,
                                 static_cast<std::int16_t>(warp), kind});
  }

  /// Advance the SM instruction clock by one batch of `n` warp ops
  /// (every Warp::count lands here).  With a sampling stride armed,
  /// emits at most one kWarpOp event per batch when the countdown
  /// crosses zero.
  void on_ops(Op op, std::uint64_t n, int cta, int warp) {
    cycles_ += n;
    if (stride_ != 0) {
      if (n >= countdown_) {
        emit(TraceEventKind::kWarpOp, cta, warp,
             static_cast<std::uint64_t>(op), n);
        countdown_ = stride_;
      } else {
        countdown_ -= n;
      }
    }
  }

  /// __syncthreads(): advances the clock by the barrier's warp-level
  /// issue slots and records the wait.
  void on_sync(int cta, int warps) {
    cycles_ += static_cast<std::uint64_t>(warps);
    emit(TraceEventKind::kBarrier, cta, -1, static_cast<std::uint64_t>(warps));
  }

  int sm_id() const { return sm_id_; }
  std::uint64_t cycles() const { return cycles_; }
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  std::int16_t sm_id_;
  std::uint64_t stride_;
  std::uint64_t countdown_;
  std::uint64_t cycles_ = 0;
  std::vector<TraceEvent> events_;
};

/// One launch's merged trace: identity, shape, merged counters, and the
/// event stream ordered (launch-begin, SM 0 events, SM 1 events, ...,
/// launch-end) — a deterministic order for any host thread count.
struct LaunchTrace {
  std::string kernel;             ///< LaunchConfig::profile.name
  int grid = 0;
  int cta_threads = 0;
  std::size_t smem_bytes = 0;
  int num_sms = 0;                ///< device SM count (tracks in the export)
  bool aborted = false;           ///< launch unwound with an error
  std::uint64_t duration = 0;     ///< max final per-SM instruction clock
  KernelStats stats;              ///< merged counters (partial if aborted)
  std::vector<TraceEvent> events;
};

/// Trace sink: collects LaunchTraces for the lifetime of a session
/// (typically one bench run).  add_launch/annotate are mutex-guarded so
/// concurrent devices can share one sink; reads are intended for after
/// the runs complete.
class Trace {
 public:
  void add_launch(LaunchTrace&& launch);

  /// Append a host-side launch-scope event (ABFT verify/recompute) to
  /// the most recently added launch; no-op when empty.
  void annotate(TraceEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

  const std::vector<LaunchTrace>& launches() const { return launches_; }
  std::size_t num_events() const;

 private:
  mutable std::mutex mu_;
  std::vector<LaunchTrace> launches_;
};

}  // namespace vsparse::gpusim
