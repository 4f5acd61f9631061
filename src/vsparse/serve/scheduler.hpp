// Multi-tenant request scheduler — the serving front end that turns
// the per-request Supervisor into a *system*: an open-loop,
// seeded stream of heterogeneous requests (SpMM / SDDMM / sparse
// attention) from several tenants, scheduled across a fleet of
// simulated devices under admission control, per-tenant memory quotas,
// and deadline SLOs.
//
// Time is a deterministic simulated clock (ticks).  Arrivals follow
// seeded inter-arrival gaps; service time is charged from a fixed
// model over three engine counters (instructions, L1 missed sectors,
// shared-memory wavefronts) plus the supervisor's recorded backoff
// cycles.  Same seed + config => byte-identical load report at any
// thread count.
//
// The control loop per step:
//
//   admit     arrivals up to `now` join their tenant's FIFO backlog;
//             a full backlog sheds the request (kQueueFull)
//   schedule  earliest-deadline-first across tenant queue fronts
//   place     the EDF winner goes to the least-loaded free fleet
//             worker (serve/fleet.hpp); no free worker => the clock
//             jumps to the next completion / probe / arrival
//   shed      a request whose deadline already passed is dropped
//             before launch (kDeadlineExceeded) — load shedding
//   execute   the request runs under the worker's Supervisor with the
//             tenant's quota and that worker's HealthTracker gate;
//             every attempt outcome feeds the kernel breakers, every
//             execution outcome feeds the worker's device breaker
//   recover   a whole-device failure (wedge timeout, device loss)
//             fails over: the request re-places on the next healthy
//             worker, bit-identical to its fault-free reference.
//             Deadline-critical tenants with shrinking margin hedge:
//             the request duplicates onto a second free worker, first
//             completion wins, the loser is cancelled and reconciled
//   record    any supervisor-exhausted failure captures a
//             vsparse-repro-v1 flight-recorder bundle (serve/
//             recorder.hpp) that replays standalone
//   charge    the service model advances the worker's busy horizon;
//             completion latency lands in the tenant's SLO accounting
//
// Chaos storms (serve/chaos.hpp) modulate the execute step: ECC
// bursts arm fault plans, brownouts shrink the watchdog budget, and
// memory-pressure windows slash the quota.  Device storms add
// whole-device fault domains: wedges, brownouts, flapping, permanent
// death.  A fleet of one fault-free device is bit- and counter-
// identical to direct unsupervised dispatch, and every recovered
// request is bit-identical to it (verify mode cross-checks each
// completed request against a reference device, chaos or not).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/serve/chaos.hpp"
#include "vsparse/serve/fleet.hpp"
#include "vsparse/serve/health.hpp"
#include "vsparse/serve/policy.hpp"

namespace vsparse::serve {

/// One tenant's contract with the scheduler.
struct TenantSpec {
  std::string name;
  /// SLO: a request must complete within this many ticks of arrival.
  std::uint64_t deadline_ticks = 600'000;
  /// Per-request memory quota passed to the Supervisor's admission.
  std::size_t memory_quota_bytes = std::size_t{1} << 20;
  /// Backlog bound: arrivals beyond this many queued requests are shed.
  std::size_t max_backlog = 8;
  /// Share of the trace: tenants are drawn proportionally to weight.
  int weight = 1;
  /// Deadline-critical: when the remaining deadline margin at placement
  /// falls under LoadConfig::hedge_margin_percent of the SLO, the
  /// request is hedged — duplicated onto the next-soonest eligible
  /// worker (launching when it frees; first completion wins, the loser
  /// is cancelled).  No effect on a fleet of one.
  bool hedge = false;
};

/// The default three-tenant mix: a tight-SLO interactive tenant with
/// most of the traffic (hedged on a fleet), an analytics tenant, and a
/// background tenant that tolerates long queueing but little backlog
/// shedding.
std::vector<TenantSpec> default_tenants();

/// Everything one load run varies.
struct LoadConfig {
  int requests = 200;
  std::uint64_t seed = 1;
  /// Engine threads for every launch (determinism demo knob — the
  /// load report must not change with it).
  int threads = 1;
  /// Mean seeded inter-arrival gap; gaps are 1 + h % (2*mean).
  std::uint64_t mean_gap_ticks = 30'000;
  std::vector<TenantSpec> tenants;  ///< empty => default_tenants()
  RetryPolicy retry;
  HealthConfig health;
  /// Compose seeded chaos storms over the trace horizon.
  bool chaos = false;
  int storms_per_kind = 2;
  /// Cross-check every completed request against a fault-free,
  /// unsupervised run on a reference device.  Output bytes always
  /// compare, so under kernel or device chaos this asserts bit-exact
  /// recovery through retries, ladder fallbacks and failovers.  SM-local
  /// counters compare only where they must match: no ECC burst or
  /// watchdog budget armed, and the same kernel ran (ExecEnv::verify).
  bool verify = false;

  // ---- fleet ----
  /// Fleet size (1..32); 1 reproduces the single-device scheduler
  /// exactly.
  int devices = 1;
  /// Compose seeded *device* storms (wedge / brownout / flap / death)
  /// over the horizon.  No-op on a fleet of one.
  bool device_chaos = false;
  int device_storms_per_kind = 1;
  /// Enable hedged launches for tenants with TenantSpec::hedge.
  bool hedge = true;
  /// Hedge trigger: remaining margin < deadline_ticks * percent / 100.
  int hedge_margin_percent = 25;
  /// Ticks a drained worker cools down before its first probe.
  std::uint64_t drain_cooldown_ticks = 250'000;
  /// Operator maintenance drains ([begin, end) per device).
  std::vector<DrainWindow> drains;
  /// Flight-recorder capacity: failures beyond this are counted, not
  /// captured.
  int max_repro_bundles = 16;
};

/// Per-tenant (and whole-run) outcome accounting.
///   submitted = completed + failed + rejected + shed_queue + shed_deadline
///   completed = slo_met + deadline_miss
struct TenantStats {
  std::string name;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t slo_met = 0;
  std::uint64_t deadline_miss = 0;  ///< completed, but after the deadline
  std::uint64_t shed_queue = 0;     ///< backlog full at admission
  std::uint64_t shed_deadline = 0;  ///< deadline passed before launch
  std::uint64_t rejected = 0;       ///< supervisor admission (quota)
  std::uint64_t failed = 0;         ///< ladder exhausted / terminal error
  std::uint64_t p50_latency_ticks = 0;
  std::uint64_t p99_latency_ticks = 0;
  std::uint64_t max_latency_ticks = 0;
};

/// The whole run, ready to serialize as vsparse-load-v2.
struct LoadResult {
  TenantStats total;
  std::vector<TenantStats> tenants;
  std::uint64_t final_tick = 0;
  /// SLO-met completions per million ticks — the headline goodput.
  double goodput_per_mtick = 0.0;
  HealthTracker::Totals health;  ///< merged across the fleet
  /// Always 0 and absent from the load report.  Kept only because
  /// perfbench/src/serve_workloads.cpp reads it; delete with that read.
  std::uint64_t policy_cache_rejections = 0;
  std::uint64_t mismatches = 0;          ///< verify: output bytes differ
  std::uint64_t counter_mismatches = 0;  ///< verify: SM-local stats differ
  std::uint64_t sim_ctas = 0;            ///< for the throughput line
  PlacementStats fleet;                  ///< placements/failovers/hedges/...
  std::uint64_t repro_bundles = 0;       ///< flight-recorder captures
  std::uint64_t repro_dropped = 0;       ///< failures past the cap
  std::string health_events_json;        ///< fleet-merged breaker events
  std::string chaos_json;                ///< ChaosPlan::to_json()
  std::string device_chaos_json;         ///< DeviceChaosPlan::to_json()
  std::string fleet_events_json;         ///< Fleet::events_json()
  std::string workers_json;              ///< Fleet::workers_json()
  std::string request_ledger_json;       ///< exactly-once per-request ledger
  std::string report_json;               ///< merged vsparse-serve-v1
  std::string repro_json;                ///< vsparse-repro-v1 artifact

  /// The versioned load report ({"schema":"vsparse-load-v2",...}).
  /// Deliberately excludes wall-clock time and the thread count, so it
  /// is byte-identical across --threads=N (tools/validate_load_report.py
  /// checks the schema; CI diffs the bytes).
  std::string to_json(const LoadConfig& config) const;
};

/// Run one seeded multi-tenant load trace to completion.  Raises
/// vsparse::Error (kBadDispatch, "serve.scheduler") on out-of-range
/// config instead of running with garbage.
LoadResult run_load(const LoadConfig& config);

}  // namespace vsparse::serve
