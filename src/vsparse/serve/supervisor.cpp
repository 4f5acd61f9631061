#include "vsparse/serve/supervisor.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/gpusim/trace/trace.hpp"
#include "vsparse/kernels/registry.hpp"

namespace vsparse::serve {
namespace {

using kernels::DispatchShape;
using kernels::KernelOp;
using kernels::KernelRun;
using kernels::LadderEntry;
using kernels::SddmmAlgorithm;
using kernels::SpmmAlgorithm;

}  // namespace

std::uint64_t backoff_cycles_for(const RetryPolicy& retry,
                                 std::uint64_t request_id, int rung_index,
                                 int attempt) {
  if (retry.backoff_base_cycles == 0 || attempt <= 0) return 0;
  // Saturating exponential: base * multiplier^(attempt-1), clamped at
  // kMaxBackoffCycles *before* the multiply that would overflow, so a
  // million-launch soak with an aggressive multiplier plateaus instead
  // of wrapping (the schedule stays monotone non-decreasing in attempt).
  const std::uint64_t mult = static_cast<std::uint64_t>(
      retry.backoff_multiplier > 1 ? retry.backoff_multiplier : 1);
  std::uint64_t wait = std::min(retry.backoff_base_cycles, kMaxBackoffCycles);
  for (int i = 1; i < attempt && wait < kMaxBackoffCycles; ++i) {
    wait = wait > kMaxBackoffCycles / mult ? kMaxBackoffCycles : wait * mult;
  }
  // Jitter stays below the (already clamped) base, so wait + jitter
  // cannot overflow: kMaxBackoffCycles + 2^40 << 2^64.  It hashes policy
  // state only, so the schedule is bit-identical at any thread count.
  const std::uint64_t jitter =
      mix64(retry.seed ^ (request_id * 0x9e3779b97f4a7c15ull) ^
            (static_cast<std::uint64_t>(rung_index) << 32) ^
            static_cast<std::uint64_t>(attempt)) %
      std::min(retry.backoff_base_cycles, kMaxBackoffCycles);
  return wait + jitter;
}

namespace {

/// The trace sink this request's events land in — same inherit chain
/// as the engine (explicit per-launch options beat the Device default).
gpusim::Trace* resolve_sink(gpusim::Device& dev,
                            const gpusim::SimOptions& sim) {
  return sim.trace.sink != nullptr ? sim.trace.sink
                                   : dev.sim_options().trace.sink;
}

/// Zero the output view between attempts: an aborted launch may have
/// partially written it, and a later rung must not inherit stale
/// elements it would legitimately skip (e.g. all-zero rows).  Host-side
/// write into the arena — deterministic, no simulated traffic.
void zero_output(gpusim::Device& dev, DenseDevice<half_t>& c) {
  if (c.rows == 0 || c.cols == 0) return;
  if (c.layout == Layout::kRowMajor) {
    for (int r = 0; r < c.rows; ++r) {
      std::memset(dev.translate(c.addr(r, 0),
                                static_cast<std::size_t>(c.cols) *
                                    sizeof(half_t)),
                  0, static_cast<std::size_t>(c.cols) * sizeof(half_t));
    }
  } else {
    for (int col = 0; col < c.cols; ++col) {
      std::memset(dev.translate(c.addr(0, col),
                                static_cast<std::size_t>(c.rows) *
                                    sizeof(half_t)),
                  0, static_cast<std::size_t>(c.rows) * sizeof(half_t));
    }
  }
}

void zero_buffer(gpusim::Buffer<half_t>& buf) {
  auto host = buf.host();
  std::fill(host.begin(), host.end(), half_t::from_bits(0));
}

/// Rebuild the host-side Cvs from its device mirror.  The simulated
/// DRAM is host memory faults never touch (faults strike only the
/// simulated load/MMA paths), so this is the *clean* encoding — the
/// re-encode rungs rebuild from it at fresh device addresses, which is
/// what gets the ladder past sticky faults parked on the original
/// buffers.
Cvs download_cvs(const CvsDevice& a) {
  Cvs host;
  host.rows = a.rows;
  host.cols = a.cols;
  host.v = a.v;
  const auto rp = a.row_ptr.host();
  const auto ci = a.col_idx.host();
  const auto va = a.values.host();
  host.row_ptr.assign(rp.begin(), rp.end());
  host.col_idx.assign(ci.begin(), ci.end());
  host.values.assign(va.begin(), va.end());
  return host;
}

/// The ServeRung a ladder entry reports/traces as.  The report's rung
/// vocabulary predates the registry and is part of the stable JSON
/// schema, so the mapping lives here, not in KernelDesc (kernels must
/// not depend on serve's reporting types).
ServeRung serve_rung_of(const LadderEntry& entry) {
  switch (entry.desc->format) {
    case kernels::OperandFormat::kBlockedEll:
      return ServeRung::kBlockedEll;
    case kernels::OperandFormat::kDense:
      return ServeRung::kDenseGemm;
    case kernels::OperandFormat::kCvs:
      break;
  }
  switch (entry.desc->op) {
    case KernelOp::kSpmm:
      switch (static_cast<SpmmAlgorithm>(entry.desc->algorithm)) {
        case SpmmAlgorithm::kOctet:
          return entry.abft ? ServeRung::kOctetAbft : ServeRung::kOctet;
        case SpmmAlgorithm::kFpuSubwarp:
          return ServeRung::kFpuSubwarp;
        case SpmmAlgorithm::kCsrFine:
          return ServeRung::kCsrFine;
        default:
          break;
      }
      break;
    case KernelOp::kSddmm:
      switch (static_cast<SddmmAlgorithm>(entry.desc->algorithm)) {
        case SddmmAlgorithm::kOctet:  // no SDDMM kernel has an ABFT variant
          return ServeRung::kOctet;
        case SddmmAlgorithm::kWmmaWarp:
          return ServeRung::kWmmaWarp;
        case SddmmAlgorithm::kFpuSubwarp:
          return ServeRung::kFpuSubwarp;
        case SddmmAlgorithm::kCsrFine:
          return ServeRung::kCsrFine;
        default:
          break;
      }
      break;
  }
  VSPARSE_RAISE(ErrorCode::kInternal, "serve.supervisor",
                "kernel desc with no serve rung mapping: "
                    << entry.desc->name);
}

/// One resolved rung: the registry entry plus its report identity.
struct Rung {
  LadderEntry entry;
  ServeRung id;
};

std::vector<Rung> build_rungs(const ServePolicy& policy, KernelOp op,
                              const LadderEntry& entry,
                              const DispatchShape& shape) {
  std::vector<Rung> rungs{{entry, serve_rung_of(entry)}};
  if (policy.ladder) {
    for (const LadderEntry& fb : kernels::fallback_ladder(op, shape)) {
      if (fb.desc == entry.desc && fb.abft == entry.abft) continue;
      rungs.push_back({fb, serve_rung_of(fb)});
    }
  }
  // Health gate: drop quarantined kernels (entry included) so traffic
  // routes around an open circuit breaker — unless that would empty
  // the list, in which case the unfiltered ladder serves (fail-static).
  if (policy.kernel_gate != nullptr) {
    std::vector<Rung> allowed;
    allowed.reserve(rungs.size());
    for (const Rung& rung : rungs) {
      if (policy.kernel_gate(policy.kernel_gate_ctx, rung.entry.desc->name,
                             rung.entry.abft)) {
        allowed.push_back(rung);
      }
    }
    if (!allowed.empty()) rungs = std::move(allowed);
  }
  return rungs;
}

/// The generic retry + degradation-ladder loop shared by both ops.
/// `run_rung` performs one attempt; `reset_output` clears partially
/// written output after an aborted attempt.  Returns the successful
/// run or rethrows the last failure after recording the give-up.
KernelRun run_ladder(const ServePolicy& policy, gpusim::Trace* sink,
                     ServeReport& report, const std::vector<Rung>& rungs,
                     const std::function<void()>& reset_output,
                     const std::function<KernelRun(const Rung&)>& run_rung) {
  std::exception_ptr last_eptr;
  ErrorCode last_code = ErrorCode::kInternal;
  std::string last_site = "serve.supervisor";
  int total_attempts = 0;
  bool output_dirty = false;

  for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
    const Rung& rung = rungs[ri];
    for (int attempt = 0; attempt <= policy.retry.max_retries; ++attempt) {
      std::uint64_t backoff = 0;
      if (attempt > 0) {
        backoff = backoff_cycles_for(policy.retry, policy.request_id,
                                     static_cast<int>(ri), attempt);
        ++report.retries;
        report.backoff_cycles += backoff;
        if (sink != nullptr) {
          sink->annotate(gpusim::TraceEventKind::kServeRetry,
                         static_cast<std::uint64_t>(rung.id),
                         static_cast<std::uint64_t>(attempt));
        }
      }
      if (output_dirty) {
        reset_output();
        output_dirty = false;
      }
      ++total_attempts;
      ServeAttempt at;
      at.rung = rung.id;
      at.attempt = attempt;
      at.backoff_cycles = backoff;
      try {
        KernelRun run = run_rung(rung);
        at.ok = true;
        report.attempts.push_back(std::move(at));
        report.completed = true;
        report.final_rung = rung.id;
        report.run = run;
        return run;
      } catch (const vsparse::Error& e) {
        last_code = e.code();
        last_site = e.site();
        last_eptr = std::current_exception();
      } catch (const std::exception&) {
        last_code = ErrorCode::kInternal;
        last_site = "serve.unclassified";
        last_eptr = std::current_exception();
      }
      output_dirty = true;
      at.ok = false;
      at.code = last_code;
      at.site = last_site;
      report.attempts.push_back(std::move(at));
      if (!error_code_retryable(last_code)) break;
    }
    if (policy.ladder && ri + 1 < rungs.size() &&
        error_code_fallback_eligible(last_code)) {
      ++report.fallbacks;
      if (sink != nullptr) {
        sink->annotate(gpusim::TraceEventKind::kServeFallback,
                       static_cast<std::uint64_t>(rungs[ri].id),
                       static_cast<std::uint64_t>(rungs[ri + 1].id));
      }
      continue;
    }
    break;
  }

  report.has_error = true;
  report.final_code = last_code;
  report.final_site = last_site;
  if (sink != nullptr) {
    sink->annotate(gpusim::TraceEventKind::kServeGiveUp,
                   static_cast<std::uint64_t>(last_code),
                   static_cast<std::uint64_t>(total_attempts));
  }
  std::rethrow_exception(last_eptr);
}

/// Admission rejection: record, emit give_up, throw the structured
/// error — nothing has launched.
[[noreturn]] void reject(ServeReport& report, gpusim::Trace* sink,
                         ErrorCode code, const std::string& site,
                         const std::string& what) {
  report.rejected = true;
  report.has_error = true;
  report.final_code = code;
  report.final_site = site;
  if (sink != nullptr) {
    sink->annotate(gpusim::TraceEventKind::kServeGiveUp,
                   static_cast<std::uint64_t>(code), 0);
  }
  throw Error(code, site, what);
}

/// Worst-case device bytes the SpMM ladder may still allocate: the
/// dense decode (M*K halves) and the Blocked-ELL re-encode (at worst
/// every block stored, plus its index array).  The reservation check
/// demands this much headroom up front so a fallback can never abort
/// mid-ladder on an allocation failure.
std::size_t spmm_ladder_workspace(const ServePolicy& policy,
                                  const DispatchShape& s,
                                  const std::vector<Rung>& rungs) {
  if (!policy.ladder) return 0;
  const std::size_t dense_bytes =
      static_cast<std::size_t>(s.m) * static_cast<std::size_t>(s.k) *
      sizeof(half_t);
  std::size_t worst = 0;
  for (const Rung& rung : rungs) {
    std::size_t need = 0;
    if (rung.entry.desc->format == kernels::OperandFormat::kDense) {
      need = dense_bytes;
    } else if (rung.entry.desc->format ==
               kernels::OperandFormat::kBlockedEll) {
      need = dense_bytes + (static_cast<std::size_t>(s.m) / s.v) *
                               (static_cast<std::size_t>(s.k) / s.v) *
                               sizeof(std::int32_t);
    }
    worst = std::max(worst, need);
  }
  return worst;
}

/// One supervised SpMM under `policy`.  `report` receives the full
/// attempt record (on success, `report.run` is the final rung's run);
/// a give-up rethrows the last underlying error for submit_spmm to
/// contain.
void supervised_spmm(gpusim::Device& dev, const CvsDevice& a,
                     const DenseDevice<half_t>& b, DenseDevice<half_t>& c,
                     const kernels::SpmmOptions& options,
                     const ServePolicy& policy, ServeReport& report) {
  report.request_id = policy.request_id;
  report.op = "spmm";

  gpusim::Trace* sink = resolve_sink(dev, options.sim);
  const DispatchShape shape = kernels::spmm_dispatch_shape(a, b);

  // ---- rung list: requested entry first, then the canonical ladder --
  LadderEntry entry{nullptr, false};
  if (options.abft.has_value()) {
    VSPARSE_CHECK_RAISE(options.algorithm == SpmmAlgorithm::kAuto ||
                            options.algorithm == SpmmAlgorithm::kOctet,
                        ErrorCode::kBadDispatch, "serve.supervisor",
                        "ABFT is only implemented for the octet SpMM kernel");
    entry = {&kernels::kernel_for(SpmmAlgorithm::kOctet), true};
  } else {
    const SpmmAlgorithm algo = options.algorithm == SpmmAlgorithm::kAuto
                                   ? kernels::resolve_auto_spmm(shape)
                                   : options.algorithm;
    entry = {&kernels::kernel_for(algo), false};
  }
  if (!entry.desc->eligible(shape)) {
    reject(report, sink, ErrorCode::kBadDispatch, "serve.supervisor",
           "requested spmm algorithm is not eligible for this shape");
  }
  const std::vector<Rung> rungs =
      build_rungs(policy, KernelOp::kSpmm, entry, shape);

  // ---- admission: quota, then device-memory reservation -------------
  const std::size_t operand_bytes = a.row_ptr.bytes() + a.col_idx.bytes() +
                                    a.values.bytes() + b.buf.bytes() +
                                    c.buf.bytes();
  const std::size_t workspace = spmm_ladder_workspace(policy, shape, rungs);
  if (policy.memory_quota_bytes != 0 &&
      operand_bytes + workspace > policy.memory_quota_bytes) {
    reject(report, sink, ErrorCode::kQuotaExceeded, "serve.quota",
           "request footprint " + std::to_string(operand_bytes + workspace) +
               "B exceeds the per-request quota of " +
               std::to_string(policy.memory_quota_bytes) + "B");
  }
  if (workspace > dev.capacity_bytes() - dev.used_bytes()) {
    reject(report, sink, ErrorCode::kOutOfMemory, "serve.reserve",
           "device headroom " +
               std::to_string(dev.capacity_bytes() - dev.used_bytes()) +
               "B cannot hold the " + std::to_string(workspace) +
               "B ladder workspace; rejecting before launch");
  }

  // Re-encoded operands, built lazily on first use of their rung and
  // logically freed on exit so long-lived peak accounting stays honest.
  std::optional<BlockedEllDevice> ell_dev;
  std::optional<DenseDevice<half_t>> dense_a;
  const kernels::AbftOptions abft_opts =
      options.abft.has_value() ? *options.abft : kernels::AbftOptions{};

  auto cleanup = [&] {
    if (ell_dev.has_value()) {
      dev.free(ell_dev->col_idx);
      dev.free(ell_dev->values);
      ell_dev.reset();
    }
    if (dense_a.has_value()) {
      dev.free(dense_a->buf);
      dense_a.reset();
    }
  };

  auto run_rung = [&](const Rung& rung) -> KernelRun {
    kernels::SpmmCall call{dev, a, b, c, options.sim};
    switch (rung.entry.desc->format) {
      case kernels::OperandFormat::kBlockedEll:
        if (!ell_dev.has_value()) {
          const Cvs host = download_cvs(a);
          ell_dev = to_device(
              dev, BlockedEll::from_dense(host.to_dense(), a.v));
        }
        call.ell = &*ell_dev;
        break;
      case kernels::OperandFormat::kDense:
        if (!dense_a.has_value()) {
          const Cvs host = download_cvs(a);
          dense_a = to_device(dev, host.to_dense());
        }
        call.dense_a = &*dense_a;
        break;
      case kernels::OperandFormat::kCvs:
        break;
    }
    if (rung.entry.abft) {
      call.abft = &abft_opts;
      KernelRun run = rung.entry.desc->spmm_abft_launch(call);
      // ABFT reports exhaustion instead of throwing; classify it so
      // the retry/ladder policy can act on it.
      if (!run.abft.clean) {
        VSPARSE_RAISE(ErrorCode::kAbftExhausted, "serve.abft",
                      "ABFT retries exhausted with "
                          << run.abft.corrupted_tiles
                          << " corrupted tiles remaining");
      }
      return run;
    }
    return rung.entry.desc->spmm_launch(call);
  };

  try {
    run_ladder(policy, sink, report, rungs, [&] { zero_output(dev, c); },
               run_rung);
    cleanup();
  } catch (...) {
    cleanup();
    throw;
  }
}

/// One supervised SDDMM; same contract as supervised_spmm.
void supervised_sddmm(gpusim::Device& dev, const DenseDevice<half_t>& a,
                      const DenseDevice<half_t>& b, const CvsDevice& mask,
                      gpusim::Buffer<half_t>& out_values,
                      const kernels::SddmmOptions& options,
                      const ServePolicy& policy, ServeReport& report) {
  report.request_id = policy.request_id;
  report.op = "sddmm";

  gpusim::Trace* sink = resolve_sink(dev, options.sim);
  const DispatchShape shape = kernels::sddmm_dispatch_shape(a, mask);

  const SddmmAlgorithm algo = options.algorithm == SddmmAlgorithm::kAuto
                                  ? kernels::resolve_auto_sddmm(shape)
                                  : options.algorithm;
  const LadderEntry entry{&kernels::kernel_for(algo), false};
  if (!entry.desc->eligible(shape)) {
    reject(report, sink, ErrorCode::kBadDispatch, "serve.supervisor",
           "requested sddmm algorithm is not eligible for this mask");
  }
  const std::vector<Rung> rungs =
      build_rungs(policy, KernelOp::kSddmm, entry, shape);

  // SDDMM has no re-encode rungs, so the footprint is operands only.
  const std::size_t operand_bytes =
      a.buf.bytes() + b.buf.bytes() + mask.row_ptr.bytes() +
      mask.col_idx.bytes() + mask.values.bytes() + out_values.bytes();
  if (policy.memory_quota_bytes != 0 &&
      operand_bytes > policy.memory_quota_bytes) {
    reject(report, sink, ErrorCode::kQuotaExceeded, "serve.quota",
           "request footprint " + std::to_string(operand_bytes) +
               "B exceeds the per-request quota of " +
               std::to_string(policy.memory_quota_bytes) + "B");
  }

  auto run_rung = [&](const Rung& rung) -> KernelRun {
    return rung.entry.desc->sddmm_launch(
        kernels::SddmmCall{dev, a, b, mask, out_values, options.sim});
  };

  run_ladder(policy, sink, report, rungs, [&] { zero_buffer(out_values); },
             run_rung);
}

}  // namespace

const ServeReport& Supervisor::finish(ServeReport&& report) {
  ++totals_.requests;
  totals_.completed += report.completed ? 1 : 0;
  totals_.retries += static_cast<std::uint64_t>(report.retries);
  totals_.fallbacks += static_cast<std::uint64_t>(report.fallbacks);
  totals_.rejected += report.rejected ? 1 : 0;
  totals_.give_ups += (!report.completed && !report.rejected) ? 1 : 0;
  reports_.push_back(std::move(report));
  return reports_.back();
}

const ServeReport& Supervisor::record_rejection(const char* op, ErrorCode code,
                                                std::string site) {
  ServeReport report;
  report.request_id = take_request_id();
  report.op = op;
  report.rejected = true;
  report.has_error = true;
  report.final_code = code;
  report.final_site = std::move(site);
  return finish(std::move(report));
}

const ServeReport& Supervisor::submit_spmm(const CvsDevice& a,
                                           const DenseDevice<half_t>& b,
                                           DenseDevice<half_t>& c,
                                           kernels::SpmmOptions options) {
  ServePolicy policy = policy_;
  policy.request_id = take_request_id();
  ServeReport report;
  try {
    supervised_spmm(dev_, a, b, c, options, policy, report);
  } catch (const vsparse::Error&) {
    // Classified and recorded in the report — contained by design.
  } catch (const std::exception&) {
    // run_ladder classified it kInternal; still contained.
  }
  return finish(std::move(report));
}

const ServeReport& Supervisor::submit_sddmm(const DenseDevice<half_t>& a,
                                            const DenseDevice<half_t>& b,
                                            const CvsDevice& mask,
                                            gpusim::Buffer<half_t>& out_values,
                                            kernels::SddmmOptions options) {
  ServePolicy policy = policy_;
  policy.request_id = take_request_id();
  ServeReport report;
  try {
    supervised_sddmm(dev_, a, b, mask, out_values, options, policy, report);
  } catch (const vsparse::Error&) {
  } catch (const std::exception&) {
  }
  return finish(std::move(report));
}

}  // namespace vsparse::serve
