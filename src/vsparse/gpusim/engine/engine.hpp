// Launch-boundary engine pieces: the process-wide CTA counter and the
// engine_detail helpers (L2 log replay, trace/sanitizer merge, error
// augmentation) that the devirtualized `launch<Body>` template in
// launch.hpp calls.  The hot per-CTA loop lives in that
// template so each kernel body is a direct, inlinable call; only the
// cold epoch- and launch-boundary work is compiled once here.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/cta.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/gpusim/stats.hpp"

namespace vsparse::gpusim {

class SmContext;
class SmTrace;
class SmSanitizer;
struct SanitizerOptions;
class Trace;
class Sanitizer;

/// Process-wide count of CTAs simulated since program start, across
/// all devices and launches.  Benches snapshot it to report simulator
/// throughput (simulated CTAs per wall-clock second).
std::uint64_t total_simulated_ctas();

namespace engine_detail {

// Out-of-line helpers shared by every launch<Body> instantiation —
// the epoch- and launch-boundary work (L2 log replay, merging
// trace/sanitizer collectors, error augmentation, the global CTA
// counter) compiles once here while the per-CTA loop specializes per
// kernel body.

/// Replay CTAs [first_cta, end_cta) of the current epoch into the
/// Device's L2, in CTA order, holding its L2 mutex: each CTA's logged
/// accesses are credited to its SM's counters.  `first_cta` is the
/// epoch's first CTA.  Then clear every SM's log for the next epoch.
void replay_l2(Device& dev, std::vector<SmContext>& sms, int first_cta,
               int end_cta);

/// Merge the per-SM trace buffers into one LaunchTrace and hand it to
/// the sink (bit-identical for any host thread count).
void finish_trace(Trace& sink, const LaunchConfig& cfg, int num_sms,
                  std::vector<SmTrace>& traces,
                  const std::vector<SmContext>& sms, bool aborted);

/// Merge the per-SM sanitizer collectors into one record and hand it to
/// the sink (SM-id merge order + cross-SM dedup, thread-count exact).
void finish_sanitizer(Sanitizer& sink, const LaunchConfig& cfg,
                      const SanitizerOptions& opts,
                      const std::vector<SmSanitizer>& sans, bool aborted);

/// Rethrow a launch error; LaunchTimeoutError gains a per-SM progress
/// dump.
[[noreturn]] void rethrow_launch_error(std::exception_ptr err,
                                       const std::vector<SmContext>& sms);

/// Add to the process-wide simulated-CTA counter.
void note_simulated_ctas(std::uint64_t ctas);

/// Throw the device's armed fault-domain error (wedge/death), if any.
/// Called at launch entry before any CTA is scheduled; a kNone device
/// returns immediately, keeping the fault-free path bit-identical.
void check_device_serviceable(const Device& dev);

}  // namespace engine_detail

}  // namespace vsparse::gpusim
