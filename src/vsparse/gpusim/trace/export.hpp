// Trace exporters.
//
// * Perfetto / chrome-trace JSON: open in https://ui.perfetto.dev or
//   chrome://tracing.  One process per launch, one track (tid) per SM
//   plus a "launch" track for launch-scope events (kernel span, ABFT
//   verify/recompute, aborts).  Timestamps are model instruction
//   cycles written as microseconds, so track lengths compare
//   meaningfully within a launch.
// * metrics.json: machine-readable per-launch record — identity,
//   shape, event census, and every registry counter plus derived
//   metrics (schema "vsparse-metrics-v1").
//
// Both serializers are deterministic functions of the Trace contents,
// and every counter they embed is independent of the host thread count
// (the engine replays L2 accesses in CTA order), so both are
// byte-identical for any `threads = N`.
#pragma once

#include <string>

namespace vsparse::gpusim {

class Trace;

std::string perfetto_json(const Trace& trace);
std::string metrics_json(const Trace& trace);

/// Write one export to `path`; false (with errno intact) on I/O error.
bool write_perfetto_json(const Trace& trace, const std::string& path);
bool write_metrics_json(const Trace& trace, const std::string& path);

/// Write `<prefix>.perfetto.json` and `<prefix>.metrics.json`
/// (the bench runner's `--trace=PREFIX` layout).
bool write_trace_files(const Trace& trace, const std::string& prefix);

}  // namespace vsparse::gpusim
