// Per-launch tracing knobs — the observability analogue of SimOptions'
// `threads`.  Leaf header (only <cstdint>): included by SimOptions so
// every kernel entry point that already takes SimOptions carries the
// trace configuration with no signature change.
//
// Inherit chain (same as SimOptions::threads): a launch whose
// TraceOptions has no sink inherits the Device's configured default
// (Device::set_sim_options), which itself defaults to "disabled".
// With no sink anywhere the engine takes a null-pointer fast path —
// exactly the FaultPlan pattern — and the run is bit- and
// counter-identical to a build without the trace subsystem.
#pragma once

#include <cstdint>

namespace vsparse::gpusim {

class Trace;

struct TraceOptions {
  /// Destination for the launch traces.  nullptr = tracing disabled
  /// (the zero-overhead fast path).  The sink must outlive every
  /// launch that writes to it; one sink typically collects a whole
  /// bench run and is exported once at the end.
  Trace* sink = nullptr;

  /// Emit one sampled warp-op event per `sample_ops` warp instructions
  /// issued on an SM (0 = no per-op events).  Full fig17-sized runs
  /// issue billions of warp ops; sampling keeps the trace tractable
  /// while still showing the instruction mix over time.
  std::uint64_t sample_ops = 0;

  bool enabled() const { return sink != nullptr; }
};

}  // namespace vsparse::gpusim
