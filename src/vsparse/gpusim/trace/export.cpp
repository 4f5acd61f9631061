#include "vsparse/gpusim/trace/export.hpp"

#include <array>
#include <cstdio>
#include <sstream>

#include "vsparse/common/json.hpp"
#include "vsparse/gpusim/sanitizer/report.hpp"
#include "vsparse/gpusim/stats.hpp"
#include "vsparse/gpusim/trace/counters.hpp"
#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {

namespace {

/// One chrome-trace event line.  `first` tracks the comma placement.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  std::ostream& begin() {
    os_ << (first_ ? "\n  " : ",\n  ");
    first_ = false;
    return os_;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void write_instant_args(std::ostream& os, const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kBarrier:
      os << "{\"cta\":" << ev.cta << ",\"warps\":" << ev.a << '}';
      return;
    case TraceEventKind::kWarpOp:
      os << "{\"cta\":" << ev.cta << ",\"warp\":" << ev.warp << ",\"op\":\""
         << op_name(static_cast<Op>(ev.a)) << "\",\"ops\":" << ev.b << '}';
      return;
    case TraceEventKind::kFaultInjected:
    case TraceEventKind::kFaultMasked:
    case TraceEventKind::kFaultDetected:
      os << "{\"site\":" << ev.a << ",\"addr\":" << ev.b << '}';
      return;
    case TraceEventKind::kWatchdog:
      os << "{\"cta\":" << ev.cta << ",\"budget\":" << ev.a << '}';
      return;
    case TraceEventKind::kAbftVerify:
      os << "{\"corrupted_tiles\":" << ev.a << '}';
      return;
    case TraceEventKind::kAbftRecompute:
      os << "{\"vec_row\":" << ev.a << ",\"tile\":" << ev.b << '}';
      return;
    case TraceEventKind::kServeRetry:
      os << "{\"rung\":" << ev.a << ",\"attempt\":" << ev.b << '}';
      return;
    case TraceEventKind::kServeFallback:
      os << "{\"from_rung\":" << ev.a << ",\"to_rung\":" << ev.b << '}';
      return;
    case TraceEventKind::kServeGiveUp:
      os << "{\"error_code\":" << ev.a << ",\"attempts\":" << ev.b << '}';
      return;
    case TraceEventKind::kSanitizer:
      os << "{\"cta\":" << ev.cta << ",\"warp\":" << ev.warp
         << ",\"tool\":\""
         << sanitizer_tool_name(static_cast<SanitizerTool>(ev.a))
         << "\",\"kind\":\""
         << hazard_kind_name(static_cast<HazardKind>(ev.b)) << "\"}";
      return;
    default:
      os << "{\"a\":" << ev.a << ",\"b\":" << ev.b << '}';
      return;
  }
}

}  // namespace

std::string perfetto_json(const Trace& trace) {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  EventWriter w(os);

  int pid = 0;
  for (const LaunchTrace& launch : trace.launches()) {
    const int launch_tid = launch.num_sms;  // host/launch-scope track

    w.begin() << "{\"ph\":\"M\",\"pid\":" << pid
              << ",\"name\":\"process_name\",\"args\":{\"name\":\"launch "
              << pid << ": ";
    os << json_escape(launch.kernel);
    os << "\"}}";
    w.begin() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << launch_tid
              << ",\"name\":\"thread_name\",\"args\":{\"name\":\"launch\"}}";
    for (int sm = 0; sm < launch.num_sms; ++sm) {
      w.begin() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << sm
                << ",\"name\":\"thread_name\",\"args\":{\"name\":\"SM " << sm
                << "\"}}";
    }

    // The kernel itself: one complete span on the launch track.
    w.begin() << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << launch_tid
              << ",\"ts\":0,\"dur\":" << launch.duration << ",\"name\":\"";
    os << json_escape(launch.kernel);
    os << "\",\"args\":{\"grid\":" << launch.grid
       << ",\"cta_threads\":" << launch.cta_threads
       << ",\"smem_bytes\":" << launch.smem_bytes
       << ",\"aborted\":" << (launch.aborted ? "true" : "false") << "}}";

    for (const TraceEvent& ev : launch.events) {
      const int tid = ev.sm >= 0 ? ev.sm : launch_tid;
      switch (ev.kind) {
        case TraceEventKind::kKernelBegin:
        case TraceEventKind::kKernelEnd:
          // Folded into the "X" span above.
          break;
        case TraceEventKind::kCtaBegin:
          w.begin() << "{\"ph\":\"B\",\"pid\":" << pid << ",\"tid\":" << tid
                    << ",\"ts\":" << ev.cycles << ",\"name\":\"cta " << ev.cta
                    << "\",\"args\":{\"warps\":" << ev.a << "}}";
          break;
        case TraceEventKind::kCtaEnd:
          w.begin() << "{\"ph\":\"E\",\"pid\":" << pid << ",\"tid\":" << tid
                    << ",\"ts\":" << ev.cycles << '}';
          break;
        default:
          w.begin() << "{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":" << tid
                    << ",\"ts\":" << ev.cycles << ",\"s\":\"t\",\"name\":\""
                    << trace_event_name(ev.kind) << "\",\"args\":";
          write_instant_args(os, ev);
          os << '}';
          break;
      }
    }
    ++pid;
  }
  os << "\n]}\n";
  return os.str();
}

std::string metrics_json(const Trace& trace) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"vsparse-metrics-v1\",\n  \"num_launches\": "
     << trace.launches().size() << ",\n  \"launches\": [";
  bool first_launch = true;
  int index = 0;
  for (const LaunchTrace& launch : trace.launches()) {
    os << (first_launch ? "\n" : ",\n");
    first_launch = false;
    os << "    {\n      \"index\": " << index++ << ",\n      \"kernel\": \"";
    os << json_escape(launch.kernel);
    os << "\",\n      \"grid\": " << launch.grid
       << ",\n      \"cta_threads\": " << launch.cta_threads
       << ",\n      \"smem_bytes\": " << launch.smem_bytes
       << ",\n      \"num_sms\": " << launch.num_sms
       << ",\n      \"aborted\": " << (launch.aborted ? "true" : "false")
       << ",\n      \"duration_cycles\": " << launch.duration;

    std::array<std::size_t, static_cast<int>(TraceEventKind::kNumEventKinds)>
        by_kind{};
    for (const TraceEvent& ev : launch.events) {
      ++by_kind[static_cast<int>(ev.kind)];
    }
    os << ",\n      \"events\": {\n        \"total\": "
       << launch.events.size() << ",\n        \"by_kind\": {";
    bool first_kind = true;
    for (int k = 0; k < static_cast<int>(TraceEventKind::kNumEventKinds);
         ++k) {
      if (by_kind[static_cast<std::size_t>(k)] == 0) continue;
      os << (first_kind ? "" : ", ") << '"'
         << trace_event_name(static_cast<TraceEventKind>(k))
         << "\": " << by_kind[static_cast<std::size_t>(k)];
      first_kind = false;
    }
    os << "}\n      },\n      \"counters\":\n";
    counters_json(os, launch.stats, 6);
    os << "\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

namespace {

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

}  // namespace

bool write_perfetto_json(const Trace& trace, const std::string& path) {
  return write_file(path, perfetto_json(trace));
}

bool write_metrics_json(const Trace& trace, const std::string& path) {
  return write_file(path, metrics_json(trace));
}

bool write_trace_files(const Trace& trace, const std::string& prefix) {
  return write_perfetto_json(trace, prefix + ".perfetto.json") &&
         write_metrics_json(trace, prefix + ".metrics.json");
}

}  // namespace vsparse::gpusim
