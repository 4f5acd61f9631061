// Serving policy knobs — what a long-lived process decides *once* and
// applies to every launch it supervises.
//
// Dependency leaf (cstddef/cstdint only): this header is what callers
// include to construct a policy for serve::Supervisor.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vsparse::serve {

/// Saturation ceiling of the exponential backoff schedule: one retry
/// never waits more than ~2^40 simulated cycles (minutes of device
/// time).  Million-launch soaks with aggressive multipliers hit this
/// cap instead of wrapping the uint64 arithmetic — the overflow
/// invariant serve_test pins.
inline constexpr std::uint64_t kMaxBackoffCycles = std::uint64_t{1} << 40;

/// Bounded retries with deterministic exponential backoff.  Backoff is
/// *simulated* time: the supervisor records the cycles a real serving
/// loop would have waited (seeded jitter decorrelates concurrent
/// requests) instead of sleeping, so soak runs are fast and reports
/// are bit-identical at any --threads=N.
struct RetryPolicy {
  /// Extra attempts per ladder rung after the first, spent only on
  /// retryable errors (ErrorCode taxonomy: ECC detections, ABFT
  /// exhaustion).  0 disables retry; the ladder still applies.
  int max_retries = 2;
  /// Backoff before retry k (1-based): base * multiplier^(k-1) + jitter,
  /// jitter in [0, base) hashed from (seed, request, rung, attempt).
  std::uint64_t backoff_base_cycles = 1024;
  int backoff_multiplier = 2;
  std::uint64_t seed = 0;
};

/// The full fault-boundary policy a Supervisor executes a request
/// under.
struct ServePolicy {
  RetryPolicy retry;

  /// Walk the degradation ladder after retries are exhausted (octet ->
  /// octet+ABFT -> blocked-ELL -> dense GEMM -> FPU reference for
  /// SpMM; octet -> WMMA -> FPU for SDDMM).  Off = retry-only: any
  /// rung failure is final.
  bool ladder = true;

  /// Per-request memory quota: operand bytes plus the worst-case
  /// ladder re-encode workspace must fit, or the request is rejected
  /// with kQuotaExceeded before anything launches.  0 = unlimited.
  std::size_t memory_quota_bytes = 0;

  /// Identifies the request in reports and decorrelates backoff jitter
  /// across requests.  Supervisor::submit_* stamps it on every request.
  std::uint64_t request_id = 0;

  /// Optional kernel-health gate (serve/health.hpp is the canonical
  /// implementation).  Consulted once per candidate rung while the
  /// supervisor builds a request's rung list — entry kernel included —
  /// with the kernel's stable registry name and whether the ABFT
  /// variant is meant; returning false routes the request around that
  /// kernel (a quarantined circuit).  If the gate rejects *every* rung
  /// the unfiltered list is used (fail-static: an all-quarantined
  /// palette must still serve rather than reject traffic).  A function
  /// pointer + context keeps this header a dependency leaf.  Null (the
  /// default) changes nothing — the fault-free fast path stays bit-
  /// and counter-identical to unsupervised dispatch.
  bool (*kernel_gate)(void* ctx, const char* kernel, bool abft) = nullptr;
  void* kernel_gate_ctx = nullptr;
};

}  // namespace vsparse::serve
