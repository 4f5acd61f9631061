#include "vsparse/serve/scheduler.hpp"

#include <algorithm>
#include <deque>
#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "vsparse/common/rng.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/serve/recorder.hpp"
#include "vsparse/serve/supervisor.hpp"

namespace vsparse::serve {
namespace {

/// The memory quota a kMemPressure storm clamps requests to (small
/// enough that the dense-decode ladder workspace of a 128-row request
/// no longer fits).
constexpr std::size_t kPressureQuotaBytes = std::size_t{16} << 10;

struct TraceRequest {
  int id = 0;
  int tenant = 0;
  RequestOp op = RequestOp::kSpmm;
  std::uint64_t arrival = 0;
  std::uint64_t deadline = 0;  ///< arrival + tenant SLO
  int m = 64, k = 64, v = 4;
  double sparsity = 0.7;
  std::uint64_t data_seed = 0;
};

// Everything about request i follows from (config.seed, i).  N stays
// 64 everywhere: the octet SpMM runs one CTA per vector row, so a
// targeted fault address is read by exactly one CTA and the attempt
// sequence is identical at any --threads=N.
std::vector<TraceRequest> build_trace(const LoadConfig& config,
                                      const std::vector<TenantSpec>& tenants) {
  int total_weight = 0;
  for (const TenantSpec& t : tenants) total_weight += std::max(t.weight, 1);

  std::vector<TraceRequest> trace;
  trace.reserve(static_cast<std::size_t>(config.requests));
  std::uint64_t arrival = 0;
  for (int i = 0; i < config.requests; ++i) {
    const std::uint64_t h = mix64(
        config.seed ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull));
    TraceRequest r;
    r.id = i;
    arrival += 1 + mix64(h ^ 0xa441) % (2 * config.mean_gap_ticks);
    r.arrival = arrival;

    std::uint64_t pick = mix64(h ^ 0x7e4a) % static_cast<std::uint64_t>(total_weight);
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const auto w = static_cast<std::uint64_t>(std::max(tenants[t].weight, 1));
      if (pick < w) {
        r.tenant = static_cast<int>(t);
        break;
      }
      pick -= w;
    }
    r.deadline = arrival + tenants[static_cast<std::size_t>(r.tenant)].deadline_ticks;

    switch (mix64(h ^ 0x09) % 4) {
      case 0:
      case 1:
        r.op = RequestOp::kSpmm;
        break;
      case 2:
        r.op = RequestOp::kSddmm;
        break;
      default:
        r.op = RequestOp::kAttention;
        break;
    }
    r.m = ((h >> 4) & 1) ? 64 : 128;
    r.k = ((h >> 6) & 1) ? 64 : 128;
    r.v = ((h >> 8) & 1) ? 2 : 4;
    r.sparsity = ((h >> 12) & 1) ? 0.9 : 0.7;
    if (r.op == RequestOp::kAttention) {
      r.m = r.k = 64;  // seq = head_dim = 64, one CTA per vector row
      r.v = 4;
    }
    r.data_seed = mix64(h ^ 0xda7a);
    trace.push_back(r);
  }
  return trace;
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, int p) {
  if (sorted.empty()) return 0;
  return sorted[(sorted.size() - 1) * static_cast<std::size_t>(p) / 100];
}

void finish_latencies(TenantStats& stats, std::vector<std::uint64_t>& lat) {
  std::sort(lat.begin(), lat.end());
  stats.p50_latency_ticks = percentile(lat, 50);
  stats.p99_latency_ticks = percentile(lat, 99);
  stats.max_latency_ticks = lat.empty() ? 0 : lat.back();
}

void append_tenant_json(std::ostringstream& os, const TenantStats& s) {
  os << "{\"name\":\"" << s.name << "\",\"submitted\":" << s.submitted
     << ",\"completed\":" << s.completed << ",\"slo_met\":" << s.slo_met
     << ",\"deadline_miss\":" << s.deadline_miss
     << ",\"shed_queue\":" << s.shed_queue
     << ",\"shed_deadline\":" << s.shed_deadline
     << ",\"rejected\":" << s.rejected << ",\"failed\":" << s.failed
     << ",\"p50_latency_ticks\":" << s.p50_latency_ticks
     << ",\"p99_latency_ticks\":" << s.p99_latency_ticks
     << ",\"max_latency_ticks\":" << s.max_latency_ticks << "}";
}

void validate_load_config(const LoadConfig& config,
                          const std::vector<TenantSpec>& tenants) {
  VSPARSE_CHECK_RAISE(config.requests > 0, ErrorCode::kBadDispatch,
                      "serve.scheduler",
                      "requests must be positive, got " << config.requests);
  VSPARSE_CHECK_RAISE(config.threads >= 1, ErrorCode::kBadDispatch,
                      "serve.scheduler",
                      "threads must be >= 1, got " << config.threads);
  VSPARSE_CHECK_RAISE(config.mean_gap_ticks >= 1, ErrorCode::kBadDispatch,
                      "serve.scheduler", "mean_gap_ticks must be >= 1");
  VSPARSE_CHECK_RAISE(config.devices >= 1 && config.devices <= 32,
                      ErrorCode::kBadDispatch, "serve.scheduler",
                      "devices must be in [1, 32], got " << config.devices);
  VSPARSE_CHECK_RAISE(
      config.hedge_margin_percent >= 0 && config.hedge_margin_percent <= 100,
      ErrorCode::kBadDispatch, "serve.scheduler",
      "hedge_margin_percent must be in [0, 100], got "
          << config.hedge_margin_percent);
  VSPARSE_CHECK_RAISE(config.max_repro_bundles >= 0, ErrorCode::kBadDispatch,
                      "serve.scheduler", "max_repro_bundles must be >= 0");
  VSPARSE_CHECK_RAISE(!tenants.empty(), ErrorCode::kBadDispatch,
                      "serve.scheduler", "tenant set must not be empty");
  for (const TenantSpec& t : tenants) {
    VSPARSE_CHECK_RAISE(!t.name.empty(), ErrorCode::kBadDispatch,
                        "serve.scheduler", "tenant name must not be empty");
    VSPARSE_CHECK_RAISE(t.deadline_ticks >= 1, ErrorCode::kBadDispatch,
                        "serve.scheduler",
                        "tenant \"" << t.name << "\" deadline must be >= 1");
    VSPARSE_CHECK_RAISE(t.max_backlog >= 1, ErrorCode::kBadDispatch,
                        "serve.scheduler",
                        "tenant \"" << t.name << "\" backlog must be >= 1");
  }
  for (const DrainWindow& d : config.drains) {
    VSPARSE_CHECK_RAISE(d.device >= 0 && d.device < config.devices,
                        ErrorCode::kBadDispatch, "serve.scheduler",
                        "drain device " << d.device << " outside fleet of "
                                        << config.devices);
    VSPARSE_CHECK_RAISE(d.begin < d.end, ErrorCode::kBadDispatch,
                        "serve.scheduler",
                        "drain window must have begin < end");
  }
}

/// The per-request row of the exactly-once accounting ledger.
struct LedgerEntry {
  const char* outcome = "";  ///< terminal: one of the five outcome strings
  int device = -1;           ///< final serving device (-1: never placed)
  int failovers = 0;
  bool hedged = false;
  bool hedge_win_secondary = false;
  std::uint64_t completion_tick = 0;
  std::uint64_t latency = 0;
};

std::string ledger_json(const std::vector<TraceRequest>& trace,
                        const std::vector<TenantSpec>& tenants,
                        const std::vector<LedgerEntry>& ledger) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceRequest& r = trace[i];
    const LedgerEntry& e = ledger[i];
    if (i) os << ",\n";
    os << "{\"id\":" << r.id << ",\"tenant\":\""
       << tenants[static_cast<std::size_t>(r.tenant)].name << "\",\"op\":\""
       << request_op_name(r.op) << "\",\"arrival\":" << r.arrival
       << ",\"deadline\":" << r.deadline << ",\"outcome\":\"" << e.outcome
       << "\",\"device\":" << e.device << ",\"failovers\":" << e.failovers
       << ",\"hedged\":" << (e.hedged ? "true" : "false")
       << ",\"hedge_win_secondary\":"
       << (e.hedge_win_secondary ? "true" : "false")
       << ",\"completion_tick\":" << e.completion_tick
       << ",\"latency\":" << e.latency << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace

std::vector<TenantSpec> default_tenants() {
  return {
      {"interactive", /*deadline=*/150'000, std::size_t{1} << 20,
       /*backlog=*/4, /*weight=*/2, /*hedge=*/true},
      {"analytics", /*deadline=*/600'000, std::size_t{1} << 20,
       /*backlog=*/8, /*weight=*/1, /*hedge=*/false},
      {"background", /*deadline=*/3'000'000, std::size_t{1} << 20,
       /*backlog=*/16, /*weight=*/1, /*hedge=*/false},
  };
}

LoadResult run_load(const LoadConfig& config) {
  const std::vector<TenantSpec> tenants =
      config.tenants.empty() ? default_tenants() : config.tenants;
  validate_load_config(config, tenants);
  const std::vector<TraceRequest> trace = build_trace(config, tenants);

  gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  hw.dram_capacity = std::size_t{1} << 26;  // 64 MiB — reset per request
  gpusim::Device ref_dev(hw);

  const std::uint64_t horizon =
      config.mean_gap_ticks * static_cast<std::uint64_t>(config.requests);
  ChaosPlan chaos;
  if (config.chaos) {
    chaos = ChaosPlan::storms(mix64(config.seed ^ 0x57095), horizon,
                              config.storms_per_kind);
  }
  DeviceChaosPlan device_chaos;
  if (config.device_chaos) {
    device_chaos =
        DeviceChaosPlan::storms(mix64(config.seed ^ 0xf1ee7), horizon,
                                config.devices, config.device_storms_per_kind);
  }

  ServePolicy base_policy;
  base_policy.retry = config.retry;
  base_policy.ladder = true;
  FleetConfig fleet_config;
  fleet_config.devices = config.devices;
  fleet_config.drain_cooldown_ticks = config.drain_cooldown_ticks;
  fleet_config.drains = config.drains;
  Fleet fleet(fleet_config, hw, base_policy, config.health,
              config.device_chaos ? &device_chaos : nullptr);
  FlightRecorder recorder(
      static_cast<std::size_t>(config.max_repro_bundles));

  LoadResult result;
  result.tenants.resize(tenants.size());
  std::vector<std::vector<std::uint64_t>> latencies(tenants.size());
  std::vector<std::uint64_t> all_latencies;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    result.tenants[t].name = tenants[t].name;
  }
  std::vector<LedgerEntry> ledger(trace.size());

  std::vector<std::deque<std::size_t>> queues(tenants.size());
  std::size_t next_arrival = 0;
  std::uint64_t now = 0;

  // Run one execution of `req` on worker `d` starting at `start`;
  // returns (outcome, completion tick).  Everything request-scoped —
  // chaos evaluation, breaker advance, quota, fault arming, flight-
  // recorder capture, health/breaker feeding — happens here, so
  // failover legs and hedge duplicates behave exactly like initial
  // placements.
  const auto run_on = [&](int d, const TraceRequest& req,
                          std::uint64_t start)
      -> std::pair<ExecOutcome, std::uint64_t> {
    Fleet::Worker& w = fleet.worker(d);
    const bool was_probe = fleet.note_placement(w, start, result.fleet);
    if (fleet.placement_migrated(d, start)) ++result.fleet.migrated;

    const ChaosActive active = chaos.at(start);
    w.health.advance(start);
    w.sup.mutable_policy().memory_quota_bytes =
        active.mem_pressure
            ? kPressureQuotaBytes
            : tenants[static_cast<std::size_t>(req.tenant)].memory_quota_bytes;

    w.dev.reset();
    const DeviceFaultActive dfault = fleet.arm_device(w, start);

    const RequestSpec spec{req.op, req.m, req.k, req.v, req.sparsity,
                           req.data_seed};
    ExecEnv env;
    env.threads = config.threads;
    env.ecc_burst = active.ecc_burst;
    env.watchdog_cta_ops =
        (active.brownout || dfault.brownout) ? kBrownoutCtaOps : 0;
    env.verify = config.verify;
    env.ref_dev = &ref_dev;

    const std::size_t first_report = w.sup.reports().size();
    const std::uint64_t first_id = fleet.next_request_id();
    const ExecOutcome out = execute_request(w.sup, spec, env);
    fleet.disarm_device(w);
    const std::uint64_t end = start + out.service;
    w.busy_until = end;

    if (!out.completed && !out.rejected) {
      // Capture before feeding the breakers: the tracker does not
      // change during execution, so the open-kernel snapshot equals
      // the gate the failing request actually ran under.
      ReproBundle b;
      b.request_id = static_cast<std::uint64_t>(req.id);
      b.tick = start;
      b.device = d;
      b.spec = spec;
      b.threads = config.threads;
      b.ecc_burst = env.ecc_burst;
      b.watchdog_cta_ops = env.watchdog_cta_ops;
      b.device_fault = dfault.dead ? "dead" : (dfault.wedged ? "wedged" : "none");
      b.memory_quota_bytes = w.sup.policy().memory_quota_bytes;
      b.retry = config.retry;
      b.first_request_id = first_id;
      b.open_kernels = w.health.open_kernels();
      b.signature = signature_json(w.sup.reports(), first_report, out);
      recorder.capture(std::move(b));
    }

    // Feed every launch outcome to this worker's kernel breakers.
    for (std::size_t ri = first_report; ri < w.sup.reports().size(); ++ri) {
      const ServeReport& rep = w.sup.reports()[ri];
      for (const ServeAttempt& attempt : rep.attempts) {
        if (attempt.rung == ServeRung::kNumRungs) continue;
        w.health.record(health_key(rep.op, attempt.rung), attempt.ok, start);
      }
    }
    fleet.note_outcome(w, out, end, was_probe, result.fleet);
    result.sim_ctas += out.ctas;
    if (config.verify && out.completed) {
      if (!out.bit_exact) ++result.mismatches;
      if (!out.counters_exact) ++result.counter_mismatches;
    }
    return {out, end};
  };

  const auto queues_empty = [&] {
    for (const auto& q : queues)
      if (!q.empty()) return false;
    return true;
  };

  while (next_arrival < trace.size() || !queues_empty()) {
    // Admit every arrival at or before `now`; full backlogs shed.
    while (next_arrival < trace.size() &&
           trace[next_arrival].arrival <= now) {
      const TraceRequest& r = trace[next_arrival];
      TenantStats& ts = result.tenants[static_cast<std::size_t>(r.tenant)];
      ++ts.submitted;
      if (queues[static_cast<std::size_t>(r.tenant)].size() >=
          tenants[static_cast<std::size_t>(r.tenant)].max_backlog) {
        fleet.worker(0).sup.record_rejection(
            request_op_name(r.op), ErrorCode::kQueueFull, "serve.scheduler");
        ++ts.shed_queue;
        ledger[next_arrival].outcome = "shed_queue";
      } else {
        queues[static_cast<std::size_t>(r.tenant)].push_back(next_arrival);
      }
      ++next_arrival;
    }

    // Earliest-deadline-first across tenant queue fronts (FIFO within
    // a tenant); ties break on arrival order.  Peek only — the pop
    // happens at placement, so waiting for a free worker never
    // reorders the backlog.
    int best = -1;
    for (std::size_t t = 0; t < queues.size(); ++t) {
      if (queues[t].empty()) continue;
      const TraceRequest& cand = trace[queues[t].front()];
      if (best < 0 ||
          cand.deadline < trace[queues[static_cast<std::size_t>(best)].front()].deadline ||
          (cand.deadline ==
               trace[queues[static_cast<std::size_t>(best)].front()].deadline &&
           cand.id < trace[queues[static_cast<std::size_t>(best)].front()].id)) {
        best = static_cast<int>(t);
      }
    }
    if (best < 0) {
      now = trace[next_arrival].arrival;  // idle until the next arrival
      continue;
    }

    fleet.observe(now, result.fleet);
    const int d0 = fleet.pick_free(now);
    if (d0 < 0) {
      // Every eligible worker is busy: jump to the next completion,
      // probe expiry, drain end, or arrival — whichever is soonest.
      std::uint64_t next_now = fleet.next_event_tick(now);
      if (next_arrival < trace.size()) {
        next_now = std::min(next_now, trace[next_arrival].arrival);
      }
      now = next_now > now ? next_now : now + 1;
      continue;
    }

    const std::size_t idx = queues[static_cast<std::size_t>(best)].front();
    const TraceRequest& req = trace[idx];
    queues[static_cast<std::size_t>(best)].pop_front();
    TenantStats& ts = result.tenants[static_cast<std::size_t>(req.tenant)];

    if (now > req.deadline) {
      // Deadline already blown: shed before launch — cheaper than
      // wasting device time on a guaranteed SLO miss.
      fleet.worker(0).sup.record_rejection(request_op_name(req.op),
                                           ErrorCode::kDeadlineExceeded,
                                           "serve.deadline");
      ++ts.shed_deadline;
      ledger[idx].outcome = "shed_deadline";
      continue;
    }

    // Hedge decision: a deadline-critical tenant whose remaining
    // margin shrank below the trigger duplicates onto the next-soonest
    // eligible worker — the classic tail-latency hedge, where the
    // backup launches when that worker frees.  Initial placements only
    // — failover legs never hedge.
    const TenantSpec& tspec = tenants[static_cast<std::size_t>(req.tenant)];
    int d1 = -1;
    std::uint64_t hedge_start = 0;
    if (config.hedge && tspec.hedge && config.devices > 1 &&
        (req.deadline - now) * 100 <
            tspec.deadline_ticks *
                static_cast<std::uint64_t>(config.hedge_margin_percent)) {
      for (int d = 0; d < fleet.devices(); ++d) {
        if (d == d0) continue;
        const Fleet::Worker& w = fleet.worker(d);
        if (!fleet.available(w, now)) continue;
        const std::uint64_t start = std::max(now, w.busy_until);
        if (start >= req.deadline) continue;  // can't possibly help
        if (d1 < 0 || start < hedge_start) {
          d1 = d;
          hedge_start = start;
        }
      }
    }

    ExecOutcome out;
    std::uint64_t end = 0;
    int serving_device = d0;
    if (d1 >= 0) {
      ++result.fleet.hedges;
      ledger[idx].hedged = true;
      fleet.emit(now, d1, "hedge");
      const auto [out_p, end_p] = run_on(d0, req, now);
      if (out_p.completed && end_p <= hedge_start) {
        // The primary finished before the backup's worker even freed:
        // cancel the duplicate pre-launch (no device time consumed).
        out = out_p;
        end = end_p;
        ++result.fleet.hedge_cancelled;
        ++result.fleet.hedges_unlaunched;
        fleet.emit(end, d1, "hedge_cancel");
      } else if (const auto [out_s, end_s] = run_on(d1, req, hedge_start);
                 out_p.completed && (!out_s.completed || end_p <= end_s)) {
        // Primary wins (ties go to the primary); cancel the secondary.
        out = out_p;
        end = end_p;
        fleet.worker(d1).busy_until = std::min(end_s, end_p);
        ++result.fleet.hedge_cancelled;
        fleet.emit(end, d1, "hedge_cancel");
      } else if (out_s.completed) {
        out = out_s;
        end = end_s;
        serving_device = d1;
        ++result.fleet.hedge_wins_secondary;
        ledger[idx].hedge_win_secondary = true;
        fleet.worker(d0).busy_until = std::min(end_p, end_s);
        ++result.fleet.hedge_cancelled;
        fleet.emit(end, d0, "hedge_cancel");
      } else if (out_p.device_failure() && out_s.device_failure()) {
        // Both legs hit device faults: fail over past both of them.
        out = out_p;
        end = std::max(end_p, end_s);
      } else if (!out_p.device_failure()) {
        // A genuine (non-device) failure is authoritative — re-placing
        // would just re-run the same deterministic failure.
        out = out_p;
        end = end_p;
      } else {
        out = out_s;
        end = end_s;
        serving_device = d1;
      }
    } else {
      const auto [out_0, end_0] = run_on(d0, req, now);
      out = out_0;
      end = end_0;
    }

    // Failover chain: only whole-device failure signatures re-place
    // (an ECC/kernel failure would deterministically recur), each leg
    // on the next untried worker that can start soonest.
    std::vector<char> tried(static_cast<std::size_t>(fleet.devices()), 0);
    tried[static_cast<std::size_t>(d0)] = 1;
    if (d1 >= 0) tried[static_cast<std::size_t>(d1)] = 1;
    while (out.device_failure()) {
      const int dn = fleet.pick_failover(end, tried);
      if (dn < 0) break;
      tried[static_cast<std::size_t>(dn)] = 1;
      const std::uint64_t start2 = std::max(end, fleet.worker(dn).busy_until);
      ++result.fleet.failovers;
      ++ledger[idx].failovers;
      fleet.emit(start2, dn, "failover");
      const auto [out_n, end_n] = run_on(dn, req, start2);
      out = out_n;
      end = end_n;
      serving_device = dn;
    }

    ledger[idx].device = serving_device;
    ledger[idx].completion_tick = end;
    if (out.completed) {
      ++ts.completed;
      const std::uint64_t latency = end - req.arrival;
      latencies[static_cast<std::size_t>(req.tenant)].push_back(latency);
      all_latencies.push_back(latency);
      if (end <= req.deadline) {
        ++ts.slo_met;
      } else {
        ++ts.deadline_miss;
      }
      ledger[idx].outcome = "completed";
      ledger[idx].latency = latency;
    } else if (out.rejected) {
      ++ts.rejected;
      ledger[idx].outcome = "rejected";
    } else {
      ++ts.failed;
      ledger[idx].outcome = "failed";
    }
  }

  std::uint64_t final_tick = now;
  for (int d = 0; d < fleet.devices(); ++d) {
    final_tick = std::max(final_tick, fleet.worker(d).busy_until);
  }
  result.final_tick = final_tick;
  result.total.name = "total";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    TenantStats& ts = result.tenants[t];
    finish_latencies(ts, latencies[t]);
    result.total.submitted += ts.submitted;
    result.total.completed += ts.completed;
    result.total.slo_met += ts.slo_met;
    result.total.deadline_miss += ts.deadline_miss;
    result.total.shed_queue += ts.shed_queue;
    result.total.shed_deadline += ts.shed_deadline;
    result.total.rejected += ts.rejected;
    result.total.failed += ts.failed;
  }
  finish_latencies(result.total, all_latencies);
  if (result.final_tick > 0) {
    result.goodput_per_mtick = static_cast<double>(result.total.slo_met) *
                               1e6 / static_cast<double>(result.final_tick);
  }
  result.health = fleet.merged_health_totals();
  result.health_events_json = fleet.merged_health_events_json();
  result.chaos_json = chaos.to_json();
  result.device_chaos_json = device_chaos.to_json();
  result.fleet_events_json = fleet.events_json();
  result.workers_json = fleet.workers_json();
  result.report_json = reports_json(fleet.merged_reports());
  result.repro_bundles = recorder.bundles().size();
  result.repro_dropped = recorder.dropped();
  result.repro_json = recorder.to_json();
  result.request_ledger_json = ledger_json(trace, tenants, ledger);
  return result;
}

std::string LoadResult::to_json(const LoadConfig& config) const {
  std::ostringstream os;
  os << "{\"schema\":\"vsparse-load-v2\",\"seed\":" << config.seed
     << ",\"requests\":" << config.requests
     << ",\"mean_gap_ticks\":" << config.mean_gap_ticks
     << ",\"devices\":" << config.devices
     << ",\"chaos\":{\"enabled\":" << (config.chaos ? "true" : "false")
     << ",\"storms_per_kind\":" << config.storms_per_kind
     << ",\"windows\":" << chaos_json << "}"
     << ",\"device_chaos\":{\"enabled\":"
     << (config.device_chaos ? "true" : "false")
     << ",\"storms_per_kind\":" << config.device_storms_per_kind
     << ",\"windows\":" << device_chaos_json << "}"
     << ",\"final_tick\":" << final_tick << ",\"goodput_per_mtick\":"
     << std::fixed << std::setprecision(3) << goodput_per_mtick
     << ",\"totals\":";
  append_tenant_json(os, total);
  os << ",\"tenants\":[";
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (t) os << ",";
    append_tenant_json(os, tenants[t]);
  }
  os << "],\"health\":{\"quarantines\":" << health.quarantines
     << ",\"half_opens\":" << health.half_opens
     << ",\"restores\":" << health.restores
     << ",\"reopens\":" << health.reopens
     << ",\"events\":" << health_events_json << "}"
     << ",\"verify\":{\"enabled\":"
     << (config.verify ? "true" : "false")
     << ",\"mismatches\":" << mismatches
     << ",\"counter_mismatches\":" << counter_mismatches << "}"
     << ",\"fleet\":{\"hedge\":" << (config.hedge ? "true" : "false")
     << ",\"hedge_margin_percent\":" << config.hedge_margin_percent
     << ",\"placements\":{\"placements\":" << fleet.placements
     << ",\"failovers\":" << fleet.failovers
     << ",\"migrated\":" << fleet.migrated << ",\"hedges\":" << fleet.hedges
     << ",\"hedge_wins_secondary\":" << fleet.hedge_wins_secondary
     << ",\"hedge_cancelled\":" << fleet.hedge_cancelled
     << ",\"hedges_unlaunched\":" << fleet.hedges_unlaunched
     << ",\"probes\":" << fleet.probes << ",\"drains\":" << fleet.drains
     << ",\"drain_reopens\":" << fleet.drain_reopens
     << ",\"restores\":" << fleet.restores
     << ",\"devices_lost\":" << fleet.devices_lost << "}"
     << ",\"workers\":" << workers_json << ",\"events\":" << fleet_events_json
     << ",\"repro_bundles\":" << repro_bundles
     << ",\"repro_dropped\":" << repro_dropped << "}"
     << ",\"request_ledger\":" << request_ledger_json
     << ",\"sim_ctas\":" << sim_ctas << "}";
  return os.str();
}

}  // namespace vsparse::serve
