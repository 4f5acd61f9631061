// Per-launch sanitizer knobs — the correctness analogue of
// TraceOptions.  Leaf header (only <cstdint>): included by SimOptions
// so every kernel entry point that already takes SimOptions carries the
// sanitizer configuration with no signature change.
//
// Inherit chain (same as SimOptions::threads and ::trace): a launch
// whose SanitizerOptions has no sink inherits the Device's configured
// default (Device::set_sim_options), which itself defaults to
// "disabled".  With no sink anywhere the engine takes a null-pointer
// fast path — exactly the FaultState pattern — and the run is bit- and
// counter-identical to a build without the sanitizer subsystem.
#pragma once

#include <cstdint>

namespace vsparse::gpusim {

class Sanitizer;

struct SanitizerOptions {
  /// Destination for the hazard reports.  nullptr = sanitizing disabled
  /// (the zero-overhead fast path).  The sink must outlive every launch
  /// that writes to it; one sink typically collects a whole bench run
  /// and is exported once at the end.
  Sanitizer* sink = nullptr;

  /// Tool selection (cuda-memcheck's racecheck / synccheck /
  /// initcheck+memcheck split).  All on by default; `--sanitize=LIST`
  /// in the bench drivers narrows the set.
  bool race = true;    ///< shared-memory barrier-epoch race detection
  bool sync = true;    ///< divergent barriers, mismatched barrier counts
  bool init = true;    ///< reads of never-written smem / freed device mem
  bool bounds = true;  ///< smem bounds, device red-zone guards

  /// Per-launch cap on merged reports delivered to the sink (reports
  /// beyond the cap are counted as suppressed, never silently dropped).
  /// Deduplication happens first, so the cap only matters for launches
  /// with many *distinct* hazards.
  std::uint32_t max_reports = 256;

  bool enabled() const { return sink != nullptr; }
};

}  // namespace vsparse::gpusim
