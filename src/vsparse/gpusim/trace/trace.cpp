#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {

const char* trace_event_name(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kKernelBegin:
      return "kernel_begin";
    case TraceEventKind::kKernelEnd:
      return "kernel_end";
    case TraceEventKind::kCtaBegin:
      return "cta_begin";
    case TraceEventKind::kCtaEnd:
      return "cta_end";
    case TraceEventKind::kBarrier:
      return "barrier";
    case TraceEventKind::kWarpOp:
      return "warp_op";
    case TraceEventKind::kFaultInjected:
      return "fault_injected";
    case TraceEventKind::kFaultMasked:
      return "fault_masked";
    case TraceEventKind::kFaultDetected:
      return "fault_detected";
    case TraceEventKind::kWatchdog:
      return "watchdog";
    case TraceEventKind::kLaunchAbort:
      return "launch_abort";
    case TraceEventKind::kAbftVerify:
      return "abft_verify";
    case TraceEventKind::kAbftRecompute:
      return "abft_recompute";
    case TraceEventKind::kServeRetry:
      return "serve_retry";
    case TraceEventKind::kServeFallback:
      return "serve_fallback";
    case TraceEventKind::kServeGiveUp:
      return "serve_give_up";
    case TraceEventKind::kSanitizer:
      return "sanitizer";
    case TraceEventKind::kNumEventKinds:
      break;
  }
  return "?";
}

void Trace::add_launch(LaunchTrace&& launch) {
  std::lock_guard<std::mutex> lock(mu_);
  launches_.push_back(std::move(launch));
}

void Trace::annotate(TraceEventKind kind, std::uint64_t a, std::uint64_t b) {
  std::lock_guard<std::mutex> lock(mu_);
  if (launches_.empty()) return;
  LaunchTrace& last = launches_.back();
  TraceEvent ev;
  ev.cycles = last.duration;  // host-side: pinned to end of launch
  ev.a = a;
  ev.b = b;
  ev.kind = kind;
  last.events.push_back(ev);
}

std::size_t Trace::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const LaunchTrace& l : launches_) n += l.events.size();
  return n;
}

}  // namespace vsparse::gpusim
