// Device-fleet serving — N simulated devices behind one scheduler.
//
// A Fleet owns `devices` Workers.  Each Worker is a full serving stack
// of its own: a gpusim::Device (private DRAM arena + engine thread
// budget), a Supervisor (retry/backoff/degradation ladder, per-worker
// quota pool), and a registry-keyed HealthTracker whose circuit
// breakers quarantine individual kernels on that device.  On top of
// the per-kernel breakers each Worker carries a *device-level* breaker
// driven by whole-device failure signatures (wedge timeouts, device
// loss):
//
//   Active    normal service; consecutive device-level failures trip
//             the breaker at drain_failure_threshold
//   Draining  quiesced: placements route around the worker while its
//             backlog migrates to healthy peers; after a cooldown the
//             next placement on it is a *probe* — success restores the
//             worker, another device-level failure re-drains it with
//             the cooldown doubled (saturating)
//   Dead      permanent loss (a death storm); never serves again
//
// Supervisor request ids are stamped from one fleet-shared counter, so
// the merged vsparse-serve-v1 report stays dense and submission-
// ordered across workers — failover re-placements and hedge duplicates
// included — which is what lets the report validator assert
// exactly-once accounting per request id.
//
// Determinism: Workers are picked least-loaded on the *simulated*
// clock (min busy_until, ties to the lowest device id), every breaker
// transition is keyed to simulated ticks, and nothing here reads wall
// clocks or thread ids — a fleet run's report is byte-identical at any
// --threads=N, and a fleet of one fault-free device is bit- and
// counter-identical to the single-device scheduler it generalizes.
//
// This header also hosts the request *executor* shared by the
// scheduler and the flight-recorder replay path (tools/replay): one
// function that builds a request's operands from its seed and runs it
// under a Supervisor, so a replayed failure re-executes literally the
// same code the fleet ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsparse/gpusim/device.hpp"
#include "vsparse/serve/chaos.hpp"
#include "vsparse/serve/health.hpp"
#include "vsparse/serve/policy.hpp"
#include "vsparse/serve/supervisor.hpp"

namespace vsparse::serve {

enum class RequestOp : std::uint8_t { kSpmm = 0, kSddmm, kAttention };

const char* request_op_name(RequestOp op);

/// Fixed dispatch/teardown charge per supervised attempt in the
/// scheduler's service model.
constexpr std::uint64_t kDispatchOverheadTicks = 2000;

/// Brownout watchdog budget (kernel-level kBrownout storms and
/// device-level brownouts alike): tight enough to kill the TCU
/// kernels' CTAs on 128-row shapes, loose enough that traffic moves.
constexpr std::uint64_t kBrownoutCtaOps = 256;

/// Everything needed to rebuild one request's operands from scratch —
/// the seed-derived identity the flight recorder captures.
struct RequestSpec {
  RequestOp op = RequestOp::kSpmm;
  int m = 64, k = 64, v = 4;
  double sparsity = 0.7;
  std::uint64_t data_seed = 0;
};

/// The environment one execution runs under (chaos modulation + engine
/// threading + optional verify cross-check).
struct ExecEnv {
  int threads = 1;
  /// Arm the seeded ECC-burst fault plan (kEccBurst storms).
  bool ecc_burst = false;
  /// Non-zero: launch under this watchdog budget (brownouts).
  std::uint64_t watchdog_cta_ops = 0;
  /// Cross-check a completed request against fault-free unsupervised
  /// dispatch on ref_dev: output bytes always; SM-local counters only
  /// when no ECC burst or watchdog budget is armed and the supervised
  /// run finished on the kernel direct dispatch picked (per stage for
  /// attention) — a fallback rung legitimately counts differently.
  bool verify = false;
  gpusim::Device* ref_dev = nullptr;
};

/// One execution's outcome in the scheduler's service model.
struct ExecOutcome {
  bool completed = false;
  bool rejected = false;  ///< supervisor admission (quota)
  std::uint64_t service = kDispatchOverheadTicks;
  std::uint64_t ctas = 0;
  bool bit_exact = true;
  bool counters_exact = true;
  /// Failure signature (valid when !completed): the supervisor's final
  /// classification, used by the device breaker to tell whole-device
  /// faults from per-kernel ones.
  ErrorCode final_code = ErrorCode::kInternal;
  std::string final_site;

  /// Whole-device failure signature: the launch died at the device
  /// fault-domain check, not inside a kernel.
  bool device_failure() const {
    return !completed && !rejected &&
           (final_code == ErrorCode::kDeviceLost ||
            final_site == "gpusim.device.wedged");
  }
};

/// Build the request's operands from spec.data_seed and run it under
/// `sup` (SpMM / SDDMM / composed attention pipeline).  Shared by the
/// fleet scheduler and the flight-recorder replay path, so a replayed
/// bundle executes exactly the code the failing placement ran.
ExecOutcome execute_request(Supervisor& sup, const RequestSpec& spec,
                            const ExecEnv& env);

// ---- the fleet --------------------------------------------------------

enum class WorkerState : std::uint8_t { kActive = 0, kDraining, kDead };

const char* worker_state_name(WorkerState state);

struct FleetConfig {
  int devices = 1;
  /// Consecutive device-level failures that trip a worker's breaker.
  int drain_failure_threshold = 2;
  /// Ticks a draining worker waits before its first probe placement.
  std::uint64_t drain_cooldown_ticks = 250'000;
  /// Probe-failure escalation cap: cooldown << min(reopens, cap).
  int max_drain_doublings = 4;
  /// Operator maintenance windows (drain device for [begin, end)).
  std::vector<DrainWindow> drains;
};

/// One fleet state transition or placement-level action, in global
/// simulated-tick order ("dead", "drain", "probe", "drain_reopen",
/// "restore", "failover", "hedge", "hedge_cancel").
struct FleetEvent {
  std::uint64_t tick = 0;
  int device = 0;
  std::string kind;
};

/// Whole-run placement counters for the v2 load report.
struct PlacementStats {
  std::uint64_t placements = 0;   ///< executions started (hedges included)
  std::uint64_t failovers = 0;    ///< re-placements after device failures
  std::uint64_t migrated = 0;     ///< placements routed around a drain
  std::uint64_t hedges = 0;       ///< hedged (duplicated) requests
  std::uint64_t hedge_wins_secondary = 0;
  std::uint64_t hedge_cancelled = 0;  ///< losers reconciled away
  /// Duplicates cancelled before launch: the primary finished before
  /// the backup's worker freed (counted in hedge_cancelled too, but
  /// consumed no placement).
  std::uint64_t hedges_unlaunched = 0;
  std::uint64_t probes = 0;
  std::uint64_t drains = 0;
  std::uint64_t drain_reopens = 0;
  std::uint64_t restores = 0;
  std::uint64_t devices_lost = 0;
};

class Fleet {
 public:
  struct Worker {
    int id = 0;
    gpusim::Device dev;
    HealthTracker health;  ///< before sup: the policy gate points at it
    Supervisor sup;
    std::uint64_t busy_until = 0;
    WorkerState state = WorkerState::kActive;
    int device_failures = 0;  ///< consecutive, device-level
    std::uint64_t probe_at = 0;
    int drain_reopens = 0;
    std::uint64_t placements = 0;
    std::uint64_t completions = 0;
    std::uint64_t failures = 0;
    std::uint64_t probes = 0;

    Worker(int id_in, const gpusim::DeviceConfig& hw,
           const ServePolicy& policy, const HealthConfig& health_config);
  };

  /// `storms` may be null (no device chaos); it must outlive the fleet.
  Fleet(const FleetConfig& config, const gpusim::DeviceConfig& hw,
        const ServePolicy& base_policy, const HealthConfig& health_config,
        const DeviceChaosPlan* storms);

  int devices() const { return static_cast<int>(workers_.size()); }
  Worker& worker(int d) { return *workers_[static_cast<std::size_t>(d)]; }
  const Worker& worker(int d) const {
    return *workers_[static_cast<std::size_t>(d)];
  }

  /// Apply permanent death windows that began at or before `now`
  /// (worker-id order, so the event sequence is deterministic).
  void observe(std::uint64_t now, PlacementStats& stats);

  /// May `w` take a placement at tick `t`?  Not dead, not inside an
  /// operator drain window, and either Active or past its probe tick.
  bool available(const Worker& w, std::uint64_t t) const;

  /// Least-loaded free worker at `now` (min busy_until among available
  /// workers with busy_until <= now, ties to the lowest id), or -1.
  /// Fail-static: when *no* worker is available — every survivor is
  /// draining — the non-dead set serves anyway, so the fleet never
  /// deadlocks while a worker still answers launches.
  int pick_free(std::uint64_t now) const;

  /// Failover target: the worker (excluding `exclude`) that can start
  /// soonest at or after `now` (min max(busy_until, now), ties to the
  /// lowest id), or -1 when every candidate is excluded or dead.
  int pick_failover(std::uint64_t now,
                    const std::vector<char>& exclude) const;

  /// Earliest tick after `now` at which pick_free could change its
  /// answer: a busy worker completing, a probe cooldown expiring, or an
  /// operator drain window ending.  Returns `now` only if the fleet is
  /// wedged solid (cannot happen while worker 0 is alive).
  std::uint64_t next_event_tick(std::uint64_t now) const;

  /// Any worker besides `chosen` idle-but-unavailable at `t`?  (Its
  /// traffic is being migrated — the drain accounting signal.)
  bool placement_migrated(int chosen, std::uint64_t t) const;

  /// Record a placement start on `w`.  Returns true when this placement
  /// is a *probe* of a draining worker (start >= probe_at) — pass the
  /// flag back to note_outcome so only probe outcomes can restore.
  bool note_placement(Worker& w, std::uint64_t start, PlacementStats& stats);

  /// Arm `w`'s device-level fault state for an execution starting at
  /// `tick` and return what was armed (wedge/brownout/death).
  DeviceFaultActive arm_device(Worker& w, std::uint64_t tick);
  void disarm_device(Worker& w);

  /// Feed one execution outcome to `w`'s device breaker: trips drains,
  /// reopens probes, restores workers, marks deaths (events emitted at
  /// `end_tick`, the failure-discovery / completion tick).  `was_probe`
  /// is note_placement's return value for this placement.
  void note_outcome(Worker& w, const ExecOutcome& out, std::uint64_t end_tick,
                    bool was_probe, PlacementStats& stats);

  /// Append a placement-level event ("failover", "hedge", ...).
  void emit(std::uint64_t tick, int device, const char* kind);

  /// The fleet-shared supervisor request-id counter.
  std::uint64_t next_request_id() const { return next_request_id_; }

  const std::vector<FleetEvent>& events() const { return events_; }
  std::string events_json() const;

  /// Per-worker summary array for the v2 report (stats + final state +
  /// per-worker health totals).
  std::string workers_json() const;

  /// Sum of every worker's HealthTracker totals.
  HealthTracker::Totals merged_health_totals() const;

  /// Every worker's health events merged in (tick, worker-id) order —
  /// byte-identical to the single tracker's stream when devices == 1.
  std::string merged_health_events_json() const;

  /// Every worker's ServeReports merged in request-id order: the dense
  /// vsparse-serve-v1 artifact.
  std::vector<ServeReport> merged_reports() const;

 private:
  bool op_drained(const Worker& w, std::uint64_t t) const;
  void mark_dead(Worker& w, std::uint64_t tick, PlacementStats* stats);

  FleetConfig config_;
  const DeviceChaosPlan* storms_ = nullptr;
  std::uint64_t next_request_id_ = 0;
  /// unique_ptr storage: Supervisor holds Device&, so Workers must
  /// never relocate.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<FleetEvent> events_;
};

}  // namespace vsparse::serve
