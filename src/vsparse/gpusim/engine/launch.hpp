// Public launch entry point.
//
// Kernels are written as per-CTA C++ callables operating on `Cta` /
// `Warp` contexts, mirroring the structure of the paper's CUDA kernels:
//
//   launch(dev, cfg, [&](Cta& cta) {
//     Lanes<std::uint64_t> addr; Lanes<half4> frag;
//     ...compute per-lane addresses like the CUDA kernel would...
//     cta.warp(0).ldg(addr, frag);          // coalescing is *measured*
//     cta.warp(0).mma_m8n8k4(a, b, acc);    // octet-level tensor core
//   });
//
// CTAs are round-robin assigned to model SMs and each SM's CTA list
// runs to completion in launch order; warps within a CTA run
// phase-by-phase — `Cta::sync()` marks barrier boundaries, and kernels
// are written in the phased style (loop over warps per phase) so
// producer/consumer shared-memory patterns remain correct under serial
// warp execution.
//
// With SimOptions{threads = N} the SM array is sharded across N host
// worker threads; one thread is the one-worker case of the same loop.
// The warp ops write only their SM's private, cache-line-aligned
// SmContext: L2 accesses are appended to the SM's L2Log.  CTAs run in
// epochs of kEpochRounds CTAs per SM; after each epoch the launching
// thread replays the logs into the Device's L2 in global CTA order
// under the Device's L2 mutex.  So functional results and every
// counter, L2/DRAM included, are bit-exact for any N, and so is what an
// aborted launch leaves behind.  Returns the merged hardware counters
// for the launch.  L1s are born cold at launch start (kernel-boundary
// semantics); L2 persists across launches.
#pragma once

#include <algorithm>
#include <exception>
#include <mutex>
#include <vector>

#include "vsparse/gpusim/engine/engine.hpp"
#include "vsparse/gpusim/engine/scheduler.hpp"
#include "vsparse/gpusim/engine/thread_pool.hpp"
#include "vsparse/gpusim/engine/warp_ops.hpp"

namespace vsparse::gpusim {

/// CTAs per SM in one epoch of a launch: the SMs' L2 logs hold at most
/// one epoch before the launching thread replays them.  Longer epochs
/// cost log memory; shorter ones cost CPU, because SM state migrates
/// between host workers at every epoch.
inline constexpr int kEpochRounds = 32;

namespace engine_detail {

/// Run one CTA on its home SM: fresh zeroed smem, fresh watchdog
/// budget, then the body — called directly so `Body` inlines.
template <class Body>
void run_cta_direct(SmContext& sm, const LaunchConfig& cfg, int cta_id,
                    Body& body) {
  sm.l2_log().begin_cta();
  sm.prepare_smem(cfg.smem_bytes);
  sm.watchdog_reset();
  const std::uint64_t warps = static_cast<std::uint64_t>(cfg.cta_threads / 32);
  if (SmTrace* t = sm.trace()) {
    t->emit(TraceEventKind::kCtaBegin, cta_id, /*warp=*/-1, warps);
  }
  if (SmSanitizer* san = sm.sanitizer()) {
    san->on_cta_begin(cta_id, static_cast<int>(warps));
  }
  Cta cta(&sm, &cfg, cta_id);
  body(cta);
  // Only a CTA that ran to completion is checked for barrier-count
  // mismatches — an aborted body is not a synccheck finding.
  if (SmSanitizer* san = sm.sanitizer()) {
    san->on_cta_end();
  }
  sm.stats().ctas_launched += 1;
  sm.stats().warps_launched += warps;
  if (SmTrace* t = sm.trace()) {
    t->emit(TraceEventKind::kCtaEnd, cta_id, /*warp=*/-1);
  }
}

}  // namespace engine_detail

/// The launch engine: the full scheduling/threading body, specialized
/// per kernel `Body` so the per-CTA call is direct (and inlinable)
/// instead of a std::function dispatch.  Epoch- and launch-boundary
/// work (L2 replay, trace/sanitizer merge, error augmentation, the
/// global CTA counter) stays out-of-line in engine.cpp behind
/// engine_detail.  Each registry launch thunk (kernels/registry.hpp)
/// reaches its own instantiation, so every kernel has a concrete,
/// monomorphic entry point.
template <class Body>
KernelStats launch(Device& dev, const LaunchConfig& cfg, Body&& body_in,
                   const SimOptions& opts = {}) {
  auto& body = body_in;  // run to completion before return; by-ref is safe
  engine_detail::check_device_serviceable(dev);
  VSPARSE_CHECK(cfg.grid >= 1);
  VSPARSE_CHECK(cfg.cta_threads >= 32 && cfg.cta_threads <= 1024 &&
                cfg.cta_threads % 32 == 0);
  VSPARSE_CHECK(cfg.smem_bytes <= dev.config().max_smem_per_cta);
  VSPARSE_CHECK(cfg.profile.regs_per_thread <=
                dev.config().max_regs_per_thread);

  Scheduler sched(cfg.grid, dev.config().num_sms);

  int threads = opts.threads > 0 ? opts.threads : dev.sim_options().threads;
  if (threads < 1) threads = 1;
  if (threads > sched.num_active_sms()) threads = sched.num_active_sms();

  const std::uint64_t watchdog = opts.watchdog_cta_ops > 0
                                     ? opts.watchdog_cta_ops
                                     : dev.sim_options().watchdog_cta_ops;

  // Tracing: the per-call TraceOptions win when they carry a sink,
  // otherwise the Device default applies (the `threads` inherit chain).
  const TraceOptions& tropts = opts.trace.sink != nullptr
                                   ? opts.trace
                                   : dev.sim_options().trace;

  // Sanitizing: same per-call-wins-else-device-default chain.
  const SanitizerOptions& sanopts = opts.sanitize.sink != nullptr
                                        ? opts.sanitize
                                        : dev.sim_options().sanitize;

  // per_sm_stats documents "the most recent launch": zero it up front
  // so a launch that unwinds (or one with a smaller active-SM set than
  // its predecessor) can never leave stale SM blocks behind.
  if (opts.per_sm_stats != nullptr) {
    opts.per_sm_stats->assign(static_cast<std::size_t>(dev.config().num_sms),
                              KernelStats{});
  }

  // Fresh per-SM contexts: cold L1s (= the kernel-boundary invalidation
  // the serial engine performed with flush_l1), empty counter blocks.
  std::vector<SmContext> sms;
  sms.reserve(static_cast<std::size_t>(sched.num_active_sms()));
  std::vector<SmTrace> traces;
  if (tropts.enabled()) {
    traces.reserve(static_cast<std::size_t>(sched.num_active_sms()));
  }
  // Sanitizer state: one collector per active SM plus one launch-wide
  // allocation snapshot (sorted, immutable — the boundscheck hot path
  // never takes the Device's alloc mutex).
  std::vector<SmSanitizer> sanitizers;
  std::vector<AllocRecord> alloc_snapshot;
  if (sanopts.enabled()) {
    alloc_snapshot = dev.allocation_snapshot();
    sanitizers.reserve(static_cast<std::size_t>(sched.num_active_sms()));
  }
  for (int sm = 0; sm < sched.num_active_sms(); ++sm) {
    sms.emplace_back(&dev, sm);
    sms.back().set_watchdog_limit(watchdog);
    if (tropts.enabled()) {
      traces.emplace_back(sm, tropts);
      sms.back().set_trace(&traces.back());
    }
    if (sanopts.enabled()) {
      sanitizers.emplace_back(sm, sanopts, &alloc_snapshot, cfg.smem_bytes);
      if (tropts.enabled()) sanitizers.back().set_trace(&traces.back());
      sms.back().set_sanitizer(&sanitizers.back());
    }
  }

  // Epochs bound the L2 logs' memory: kEpochRounds CTAs per SM run,
  // then the launching thread replays the epoch's logs in CTA order.
  // Workers claim whole SMs and run each SM's CTAs of the epoch in
  // launch order (ThreadPool::run runs one worker inline).  A throw
  // ends only its own SM's list: every other SM still runs its CTAs of
  // the epoch, whichever worker runs it, so per-SM state after an abort
  // is the same at any thread count.
  const int epoch_ctas = kEpochRounds * sched.cta_stride();
  std::exception_ptr error;
  int error_cta = cfg.grid;  // lowest throwing CTA
  for (int first = 0, end = 0; first < cfg.grid && !error; first = end) {
    end = first + std::min(epoch_ctas, cfg.grid - first);
    std::mutex error_mu;
    sched.rewind();
    ThreadPool::instance().run(threads, [&] {
      for (int sm; (sm = sched.next_sm()) >= 0;) {
        SmContext& ctx = sms[static_cast<std::size_t>(sm)];
        int cta = first + sched.first_cta(sm);
        try {
          for (; cta < end; cta += sched.cta_stride()) {
            engine_detail::run_cta_direct(ctx, cfg, cta, body);
          }
        } catch (...) {
          // Keep the lowest-indexed throwing CTA's error, whichever SM
          // reports first.
          std::lock_guard<std::mutex> lock(error_mu);
          if (cta < error_cta) {
            error_cta = cta;
            error = std::current_exception();
          }
        }
      }
    });
    // On an error, stop after the throwing CTA's partial log: the L2
    // then holds what CTAs 0..error_cta leave behind in CTA order.
    engine_detail::replay_l2(dev, sms, first, error ? error_cta + 1 : end);
  }
  if (error) {
    if (tropts.enabled()) {
      engine_detail::finish_trace(*tropts.sink, cfg, dev.config().num_sms,
                                  traces, sms, /*aborted=*/true);
    }
    if (sanopts.enabled()) {
      engine_detail::finish_sanitizer(*sanopts.sink, cfg, sanopts,
                                      sanitizers, /*aborted=*/true);
    }
    engine_detail::rethrow_launch_error(error, sms);
  }

  // Merge: uint64 sums are commutative and associative, so the merged
  // block is independent of which worker ran which SM.
  KernelStats total;
  for (const SmContext& sm : sms) total += sm.stats();
  engine_detail::note_simulated_ctas(total.ctas_launched);

  if (tropts.enabled()) {
    engine_detail::finish_trace(*tropts.sink, cfg, dev.config().num_sms,
                                traces, sms, /*aborted=*/false);
  }
  if (sanopts.enabled()) {
    engine_detail::finish_sanitizer(*sanopts.sink, cfg, sanopts, sanitizers,
                                    /*aborted=*/false);
  }

  if (opts.per_sm_stats) {
    for (const SmContext& sm : sms) {
      (*opts.per_sm_stats)[static_cast<std::size_t>(sm.sm_id())] = sm.stats();
    }
  }
  return total;
}

}  // namespace vsparse::gpusim
