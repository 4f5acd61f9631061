#include "vsparse/gpusim/engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <set>
#include <sstream>
#include <vector>

#include "vsparse/gpusim/engine/sm_context.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/sanitizer/shadow.hpp"
#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {

namespace {

std::atomic<std::uint64_t> g_total_ctas{0};

}  // namespace

namespace engine_detail {

void replay_l2(Device& dev, std::vector<SmContext>& sms, int first_cta,
               int end_cta) {
  const int num_sms = dev.config().num_sms;
  {
    std::lock_guard<std::mutex> lock(dev.l2_mutex());
    for (int cta = first_cta; cta < end_cta; ++cta) {
      SmContext& sm = sms[static_cast<std::size_t>(cta % num_sms)];
      sm.l2_log().replay(static_cast<std::size_t>((cta - first_cta) / num_sms),
                         dev.l2(), sm.stats());
    }
  }
  for (SmContext& sm : sms) sm.l2_log().clear();
}

/// Merge the per-SM trace buffers into one LaunchTrace and hand it to
/// the sink.  Event order — launch begin, SM 0's stream, SM 1's, ...,
/// launch end — depends only on per-SM state, so the merged trace is
/// bit-identical for any host thread count.  On an aborted launch the
/// partial trace (everything emitted before the unwind, plus a
/// kLaunchAbort marker) is still delivered.
void finish_trace(Trace& sink, const LaunchConfig& cfg, int num_sms,
                  std::vector<SmTrace>& traces,
                  const std::vector<SmContext>& sms, bool aborted) {
  LaunchTrace lt;
  lt.kernel = cfg.profile.name;
  lt.grid = cfg.grid;
  lt.cta_threads = cfg.cta_threads;
  lt.smem_bytes = cfg.smem_bytes;
  lt.num_sms = num_sms;
  lt.aborted = aborted;
  for (const SmContext& sm : sms) lt.stats += sm.stats();

  std::size_t total_events = 2;
  for (const SmTrace& t : traces) {
    total_events += t.events().size();
    lt.duration = std::max(lt.duration, t.cycles());
  }
  lt.events.reserve(total_events + (aborted ? 1 : 0));

  TraceEvent begin;
  begin.kind = TraceEventKind::kKernelBegin;
  begin.a = static_cast<std::uint64_t>(cfg.grid);
  begin.b = static_cast<std::uint64_t>(cfg.cta_threads);
  lt.events.push_back(begin);
  for (const SmTrace& t : traces) {
    lt.events.insert(lt.events.end(), t.events().begin(), t.events().end());
  }
  if (aborted) {
    TraceEvent abort;
    abort.kind = TraceEventKind::kLaunchAbort;
    abort.cycles = lt.duration;
    lt.events.push_back(abort);
  }
  TraceEvent end;
  end.kind = TraceEventKind::kKernelEnd;
  end.cycles = lt.duration;
  lt.events.push_back(end);

  sink.add_launch(std::move(lt));
}

/// Merge the per-SM sanitizer collectors into one LaunchSanitizerRecord
/// and hand it to the sink.  SM-id merge order plus a cross-SM dedup
/// pass (first SM wins) keeps the record byte-identical for any host
/// thread count, mirroring finish_trace.  An aborted launch still
/// delivers everything detected before the unwind — an OOB lds is
/// reported *and* the launch throws.
void finish_sanitizer(Sanitizer& sink, const LaunchConfig& cfg,
                      const SanitizerOptions& opts,
                      const std::vector<SmSanitizer>& sans, bool aborted) {
  LaunchSanitizerRecord rec;
  rec.kernel = cfg.profile.name;
  rec.grid = cfg.grid;
  rec.cta_threads = cfg.cta_threads;
  rec.smem_bytes = cfg.smem_bytes;
  rec.aborted = aborted;
  std::set<SmSanitizer::Key> seen;
  for (const SmSanitizer& s : sans) {
    rec.suppressed += s.suppressed();
    for (const SanitizerReport& r : s.reports()) {
      if (!seen.insert(SmSanitizer::key(r)).second) continue;
      if (rec.reports.size() >= opts.max_reports) {
        ++rec.suppressed;
        continue;
      }
      rec.reports.push_back(r);
    }
  }
  sink.add_launch(std::move(rec));
}

/// Rethrow a launch error.  A LaunchTimeoutError is augmented with a
/// per-SM progress dump (CTAs completed + ops issued by the in-flight
/// CTA on each SM) so a hang report shows *where* the launch stalled;
/// every other exception propagates unchanged.
[[noreturn]] void rethrow_launch_error(std::exception_ptr err,
                                       const std::vector<SmContext>& sms) {
  try {
    std::rethrow_exception(err);
  } catch (const LaunchTimeoutError& e) {
    std::ostringstream os;
    os << e.what() << "\nper-SM progress:";
    for (const SmContext& sm : sms) {
      os << " sm" << sm.sm_id() << "{ctas_done=" << sm.stats().ctas_launched
         << ",ops_in_cta=" << sm.watchdog_ops() << "}";
    }
    throw LaunchTimeoutError(os.str());
  }
}

void note_simulated_ctas(std::uint64_t ctas) {
  g_total_ctas.fetch_add(ctas, std::memory_order_relaxed);
}

void check_device_serviceable(const Device& dev) {
  switch (dev.device_fault()) {
    case DeviceFault::kNone:
      return;
    case DeviceFault::kWedged:
      // Deliberately a plain taxonomy error, not LaunchTimeoutError: no
      // CTA ever ran, so there is no per-SM progress to dump, and the
      // stable site string keeps serve reports byte-identical.
      throw Error(ErrorCode::kLaunchTimeout, "gpusim.device.wedged",
                  "device is wedged: launch timed out before any CTA was "
                  "scheduled");
    case DeviceFault::kDead:
      throw Error(ErrorCode::kDeviceLost, "gpusim.device.lost",
                  "device is lost: permanent fault-domain failure");
  }
}

}  // namespace engine_detail

std::uint64_t total_simulated_ctas() {
  return g_total_ctas.load(std::memory_order_relaxed);
}

}  // namespace vsparse::gpusim
