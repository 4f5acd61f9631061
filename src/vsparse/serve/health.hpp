// Kernel health tracking — per-kernel circuit breakers over a sliding
// window of supervised launch outcomes.
//
// Every ServeAttempt the Supervisor records is fed to a HealthTracker
// keyed by the kernel's stable registry name ("spmm_octet",
// "sddmm_wmma_warp", ...; the ABFT variant gets a "+abft" suffix).
// Each key owns one breaker:
//
//   Closed     normal service.  Outcomes land in a sliding window of
//              the last `window` attempts; once at least
//              `min_attempts` are in the window and the failure
//              fraction reaches `failure_percent`, the breaker trips
//              to Open (a *quarantine* event).
//   Open       the gate (ServePolicy::kernel_gate) answers false, so
//              the degradation ladder routes requests around this
//              kernel.  After `cooldown_ticks` of simulated time the
//              breaker moves to Half-Open.
//   Half-Open  traffic is admitted again as probes.  `probe_successes`
//              consecutive clean launches close the breaker (a
//              *restore* event, window cleared); any failure re-opens
//              it with the cooldown doubled per reopening (a *reopen*
//              event), saturating after `max_cooldown_doublings`.
//
// Determinism: everything is keyed on simulated ticks and stored in a
// std::map (sorted iteration), so the event sequence — and
// events_json() — is byte-identical across --threads=N and across
// repeated same-seed runs (asserted by serve_health_test).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vsparse/serve/report.hpp"

namespace vsparse::serve {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };

/// Tuning knobs for every breaker a tracker owns.
struct HealthConfig {
  /// Sliding-window length in attempts (capped at 64 — the window is a
  /// bitmask).
  int window = 16;
  /// Minimum attempts in the window before the trip test applies; a
  /// single early failure must not quarantine a cold kernel.
  int min_attempts = 4;
  /// Trip when failures * 100 >= failure_percent * attempts.
  int failure_percent = 50;
  /// Simulated ticks an Open breaker waits before Half-Open probing.
  std::uint64_t cooldown_ticks = 2'000'000;
  /// Consecutive Half-Open successes that close the breaker.
  int probe_successes = 2;
  /// Reopen cooldown escalation cap: cooldown_ticks << min(reopens, cap).
  int max_cooldown_doublings = 6;
};

/// One state-machine transition, in global tick order.
struct HealthEvent {
  enum class Kind : std::uint8_t { kQuarantine = 0, kHalfOpen, kRestore, kReopen };

  Kind kind = Kind::kQuarantine;
  std::uint64_t tick = 0;
  std::string kernel;  ///< health key ("spmm_octet", "spmm_octet+abft", ...)
  int failures = 0;    ///< window failures at transition time
  int attempts = 0;    ///< window attempts at transition time
};

const char* health_event_kind_name(HealthEvent::Kind kind);

/// The registry-keyed breaker table.  Single-threaded by design: the
/// scheduler's event loop is the only caller, and the gpusim engine's
/// worker threads never touch it.
class HealthTracker {
 public:
  struct Totals {
    std::uint64_t quarantines = 0;
    std::uint64_t half_opens = 0;
    std::uint64_t restores = 0;
    std::uint64_t reopens = 0;
  };

  explicit HealthTracker(HealthConfig config = {});

  /// Move time forward: Open breakers whose cooldown expired at or
  /// before `tick` transition to Half-Open (map order, so the event
  /// sequence is deterministic).  Call once per scheduling step.
  void advance(std::uint64_t tick);

  /// Gate query: false only while `kernel`'s breaker is Open.  Unknown
  /// kernels are healthy by definition.
  bool allowed(const std::string& kernel) const;

  /// Feed one launch outcome (ok == the attempt completed).
  void record(const std::string& kernel, bool ok, std::uint64_t tick);

  /// ServePolicy::kernel_gate adapter: ctx is the HealthTracker.
  static bool gate(void* ctx, const char* kernel, bool abft);

  BreakerState state(const std::string& kernel) const;

  /// Health keys whose breakers are currently Open, in map (sorted)
  /// order — the flight recorder snapshots this so a replay can rebuild
  /// the exact gate the failing request ran under.
  std::vector<std::string> open_kernels() const;

  const Totals& totals() const { return totals_; }
  const std::vector<HealthEvent>& events() const { return events_; }

  /// Deterministic JSON array of every transition, in tick order.
  std::string events_json() const;

 private:
  struct Circuit {
    BreakerState state = BreakerState::kClosed;
    std::uint64_t window_bits = 0;  ///< bit i set => attempt i failed
    int window_size = 0;            ///< attempts currently in the window
    int failures = 0;               ///< set bits in window_bits
    std::uint64_t cooldown_until = 0;
    int probe_ok = 0;     ///< consecutive Half-Open successes
    int reopenings = 0;   ///< Half-Open failures so far (escalates cooldown)
  };

  void push_outcome(Circuit& c, bool ok);
  void emit(HealthEvent::Kind kind, std::uint64_t tick,
            const std::string& kernel, const Circuit& c);

  HealthConfig config_;
  std::map<std::string, Circuit> circuits_;
  std::vector<HealthEvent> events_;
  Totals totals_;
};

/// The health key for a supervised attempt: registry kernel name, with
/// "+abft" appended for the ABFT rung ("spmm" + kOctetAbft ->
/// "spmm_octet+abft").  `op` is ServeReport::op ("spmm" | "sddmm").
std::string health_key(const std::string& op, ServeRung rung);

}  // namespace vsparse::serve
