// The launch supervisor — the fault boundary that keeps a long-lived
// many-launch process correct and alive.
//
// One supervised request runs as:
//
//   admission   quota + device-memory reservation check; oversized
//               requests are rejected with a structured error before
//               anything launches
//   retry       up to RetryPolicy::max_retries re-runs of the current
//               rung, spent only on *retryable* taxonomy codes, each
//               preceded by deterministic seeded exponential backoff
//               (simulated cycles — recorded, never slept)
//   ladder      on a fallback-eligible failure, hop to the next
//               eligible rung: octet -> octet+ABFT -> blocked-ELL ->
//               dense GEMM -> FPU reference (SpMM); octet -> WMMA ->
//               FPU (SDDMM).  Re-encode rungs rebuild the sparse
//               operand from the (clean) host-side arena copy at fresh
//               device addresses, which is what defeats sticky faults
//               parked on the original encoding.
//   give up     non-eligible failure or ladder exhausted: the original
//               exception propagates; the report records why.
//
// Every hop emits a PR 3 trace event (serve_retry / serve_fallback /
// serve_give_up) and lands in the ServeReport.  All rungs are bit-
// compatible (every SpMM kernel reproduces spmm_reference's fp32
// K-ordered accumulation exactly), so a recovered launch is
// bit-identical to a fault-free one.
//
// The null-policy fast path: dispatch with SpmmOptions::serve ==
// nullptr never reaches this layer, and a supervised fault-free launch
// performs exactly one kernel call with unchanged options — bit- and
// counter-identical to unsupervised dispatch (asserted by serve_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/serve/policy.hpp"
#include "vsparse/serve/report.hpp"

namespace vsparse::serve {

/// Deterministic saturating backoff schedule: base * multiplier^(attempt-1)
/// + seeded jitter, clamped at kMaxBackoffCycles *before* the multiply so
/// million-launch soaks with aggressive multipliers never wrap uint64.
/// Exposed for the overflow regression in serve_test.
std::uint64_t backoff_cycles_for(const RetryPolicy& retry,
                                 std::uint64_t request_id, int rung_index,
                                 int attempt);

/// Execute one supervised SpMM under options.serve (must be non-null).
/// On success returns the final rung's KernelRun; on give-up rethrows
/// the last underlying error (original type preserved).  When
/// options.serve_report is set it receives the full attempt record
/// either way.  Called by kernels::spmm; callable directly.
kernels::KernelRun supervised_spmm(gpusim::Device& dev, const CvsDevice& a,
                                   const DenseDevice<half_t>& b,
                                   DenseDevice<half_t>& c,
                                   const kernels::SpmmOptions& options);

/// Supervised SDDMM; same contract.
kernels::KernelRun supervised_sddmm(gpusim::Device& dev,
                                    const DenseDevice<half_t>& a,
                                    const DenseDevice<half_t>& b,
                                    const CvsDevice& mask,
                                    gpusim::Buffer<half_t>& out_values,
                                    const kernels::SddmmOptions& options);

/// The long-lived serving front end: owns the policy, stamps request
/// ids, keeps every ServeReport, and never lets a classified failure
/// escape — submit_* returns the report instead of throwing, which is
/// the "zero process aborts" contract a chaos load run relies on.
class Supervisor {
 public:
  /// Aggregate outcome counters across all submitted requests.
  struct Totals {
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t give_ups = 0;
    std::uint64_t rejected = 0;
  };

  Supervisor(gpusim::Device& dev, ServePolicy policy)
      : dev_(dev), policy_(policy) {}

  /// Run one supervised SpMM.  `options.serve`/`serve_report` are
  /// overridden by this Supervisor's policy and report storage.
  ///
  /// Lifetime: the returned reference points into reports(), so the
  /// NEXT submit_* / record_rejection call may invalidate it (vector
  /// growth).  Copy anything needed across a later submit — the
  /// scheduler's composed attention request is the canonical example.
  const ServeReport& submit_spmm(const CvsDevice& a,
                                 const DenseDevice<half_t>& b,
                                 DenseDevice<half_t>& c,
                                 kernels::SpmmOptions options = {});

  /// Run one supervised SDDMM.
  const ServeReport& submit_sddmm(const DenseDevice<half_t>& a,
                                  const DenseDevice<half_t>& b,
                                  const CvsDevice& mask,
                                  gpusim::Buffer<half_t>& out_values,
                                  kernels::SddmmOptions options = {});

  /// Record a request turned away *before* it reached the device — the
  /// scheduler's tenant-backlog shedding (kQueueFull) or deadline
  /// shedding (kDeadlineExceeded).  Consumes a request id so report
  /// numbering stays dense and arrival-ordered.
  const ServeReport& record_rejection(const char* op, ErrorCode code,
                                      std::string site);

  /// Route request-id stamping through an external counter shared by a
  /// fleet of per-device supervisors, so the merged report numbering
  /// stays dense and submission-ordered across workers (failover and
  /// hedge duplicates included).  nullptr restores the private counter.
  /// The counter must outlive the attachment.
  void set_request_id_source(std::uint64_t* source) { id_source_ = source; }

  /// Replay hook: continue private numbering from `id`, so a replayed
  /// request reproduces the captured report ids exactly.
  void set_next_request_id(std::uint64_t id) { next_request_ = id; }

  gpusim::Device& device() { return dev_; }
  const ServePolicy& policy() const { return policy_; }
  /// Scheduler hook: adjust quota / kernel gate between submits (the
  /// policy is consulted afresh on every submit_*).
  ServePolicy& mutable_policy() { return policy_; }
  const std::vector<ServeReport>& reports() const { return reports_; }
  const Totals& totals() const { return totals_; }

  /// The vsparse-serve-v1 JSON artifact (serve/report.hpp).
  std::string reports_json() const { return serve::reports_json(reports_); }

 private:
  const ServeReport& finish(ServeReport&& report);

  std::uint64_t take_request_id() {
    return id_source_ != nullptr ? (*id_source_)++ : next_request_++;
  }

  gpusim::Device& dev_;
  ServePolicy policy_;
  std::uint64_t* id_source_ = nullptr;
  std::uint64_t next_request_ = 0;
  std::vector<ServeReport> reports_;
  Totals totals_;
};

}  // namespace vsparse::serve
