// Host-side execution options for the simulator engine — how a launch
// is run, as opposed to what device is modeled (DeviceConfig).  Leaf
// header: included by Device (per-device defaults) and by every kernel
// entry point (per-call override).
#pragma once

#include <cstdint>
#include <vector>

#include "vsparse/gpusim/sanitizer/options.hpp"
#include "vsparse/gpusim/trace/options.hpp"

namespace vsparse::gpusim {

struct KernelStats;

struct SimOptions {
  /// Host worker threads the SM array is sharded across.
  ///   0  -> inherit the Device's configured default (which itself
  ///         defaults to 1).
  ///   N  -> N workers (1: the launching thread alone); each SM's CTA
  ///         list runs in launch order on one worker, and the L2
  ///         replays every SM's logged accesses in CTA order, so
  ///         functional results and every counter — L2 hit/miss and
  ///         DRAM bytes included — are bit-identical for any N, for
  ///         aborted launches too.
  int threads = 0;

  /// Optional out-parameter: when non-null, the launch fills it with
  /// one KernelStats block per SM (index = sm_id, size = num_sms) for
  /// the *most recent* launch — the per-SM view the merged return
  /// value is summed from.
  std::vector<KernelStats>* per_sm_stats = nullptr;

  /// Watchdog: maximum warp ops a single CTA body may issue before the
  /// launch is aborted with LaunchTimeoutError (gpusim/faults.hpp)
  /// carrying a per-SM progress dump.  0 -> inherit the Device default
  /// (which itself defaults to "disabled"); the same inherit chain as
  /// `threads`.  Guards against malformed inputs (e.g. a cyclic
  /// row_ptr) spinning a kernel loop forever.
  std::uint64_t watchdog_cta_ops = 0;

  /// Per-launch tracing (gpusim/trace/).  A launch whose TraceOptions
  /// has no sink inherits the Device's configured default — the same
  /// inherit chain as `threads`.  With no sink anywhere the engine
  /// takes a null-pointer fast path and the run is bit- and
  /// counter-identical to an untraced one.  Declared after the scalar
  /// options so existing designated initializers keep compiling.
  TraceOptions trace;

  /// Per-launch hazard analysis (gpusim/sanitizer/): racecheck /
  /// synccheck / initcheck / boundscheck against shadow state.  Same
  /// inherit chain and null-sink fast path as `trace`.  Declared last
  /// so existing designated initializers keep compiling.
  SanitizerOptions sanitize;
};

}  // namespace vsparse::gpusim
