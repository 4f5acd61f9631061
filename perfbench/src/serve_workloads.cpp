// Serving workloads: serve_fleet (a fault-free four-device fleet below
// its knee) and serve_chaos (the same fleet under kernel and device
// chaos).  Both drive serve::run_load, the library's one serving entry
// point, with an open-loop trace generated from the run seed.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "vsparse/serve/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = vsparse::serve;

/// What the first execution of a sub-run recorded.
struct SubRunRecord {
  bool done = false;
  std::uint64_t report_hash = 0;  ///< to_json(): thread-invariant bytes
  serve::LoadResult result;
};

// ---- scanning the library's JSON strings ------------------------------

/// The unsigned integer after the first `"key":` at or after `from`.
bool scan_u64(std::string_view s, std::string_view key, std::size_t from,
              std::uint64_t& out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = s.find(needle, from);
  if (at == std::string_view::npos) return false;
  std::size_t i = at + needle.size();
  if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
  out = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    out = out * 10 + static_cast<std::uint64_t>(s[i] - '0');
    ++i;
  }
  return true;
}

/// The string after the first `"key":"` at or after `from`.
std::string_view scan_str(std::string_view s, std::string_view key,
                          std::size_t from = 0) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = s.find(needle, from);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + needle.size();
  const std::size_t end = s.find('"', begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : s.substr(begin, end - begin);
}

std::size_t count_of(std::string_view s, std::string_view needle) {
  std::size_t n = 0;
  for (std::size_t at = s.find(needle); at != std::string_view::npos;
       at = s.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

template <class Fn>
void for_each_line(std::string_view s, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < s.size()) {
    std::size_t end = s.find('\n', begin);
    if (end == std::string_view::npos) end = s.size();
    fn(s.substr(begin, end - begin));
    begin = end + 1;
  }
}

/// Latencies and per-attempt counts pooled over the recorded sub-runs.
struct Pooled {
  std::vector<std::uint64_t> latency;
  std::map<std::string, std::vector<std::uint64_t>> by_op, by_tenant;
  std::uint64_t submitted = 0, slo_met = 0, final_ticks = 0;
  std::uint64_t attempts = 0, retries = 0, fallbacks = 0, backoff = 0;
  std::uint64_t shed_queue = 0, shed_deadline = 0, rejected = 0, failed = 0;
  std::uint64_t failovers = 0, migrated = 0, hedges = 0, quarantines = 0,
                restores = 0, policy_rejections = 0, repro_bundles = 0;

  void add(const serve::LoadResult& r) {
    submitted += r.total.submitted;
    slo_met += r.total.slo_met;
    final_ticks += r.final_tick;
    shed_queue += r.total.shed_queue;
    shed_deadline += r.total.shed_deadline;
    rejected += r.total.rejected;
    failed += r.total.failed;
    failovers += r.fleet.failovers;
    migrated += r.fleet.migrated;
    hedges += r.fleet.hedges;
    quarantines += r.health.quarantines;
    restores += r.health.restores;
    policy_rejections += r.policy_cache_rejections;
    repro_bundles += r.repro_bundles;

    for_each_line(r.request_ledger_json, [&](std::string_view line) {
      if (scan_str(line, "outcome") != "completed") return;
      std::uint64_t lat = 0;
      if (!scan_u64(line, "latency", 0, lat)) return;
      latency.push_back(lat);
      by_op[std::string(scan_str(line, "op"))].push_back(lat);
      by_tenant[std::string(scan_str(line, "tenant"))].push_back(lat);
    });
    // vsparse-serve-v1: a header line with the run totals, then one
    // report per line whose first backoff_cycles is the report's total.
    std::uint64_t v = 0;
    if (scan_u64(r.report_json, "retries", 0, v)) retries += v;
    if (scan_u64(r.report_json, "fallbacks", 0, v)) fallbacks += v;
    attempts += count_of(r.report_json, "\"rung\":\"") -
                count_of(r.report_json, "\"rung\":\"none\"");
    for_each_line(r.report_json, [&](std::string_view line) {
      if (line.find("\"request\":") == std::string_view::npos) return;
      std::uint64_t b = 0;
      if (scan_u64(line, "backoff_cycles", 0, b)) backoff += b;
    });
  }
};

bool accounting_holds(const serve::TenantStats& t) {
  return t.submitted ==
             t.completed + t.failed + t.rejected + t.shed_queue +
                 t.shed_deadline &&
         t.completed == t.slo_met + t.deadline_miss;
}

serve::LoadConfig fleet_config(const Options& opts, std::uint64_t seed,
                               int requests, std::uint64_t gap) {
  serve::LoadConfig c;
  c.requests = requests;
  c.seed = seed;
  c.threads = opts.threads;
  c.mean_gap_ticks = gap;
  c.devices = 4;
  c.retry.seed = seed;
  return c;
}

serve::LoadResult timed_run_load(const serve::LoadConfig& config,
                                 Tracer* tracer) {
  Span span(tracer, "serve");
  return serve::run_load(config);
}

/// How a serve workload differs: the run_load configurations its timed
/// loop repeats, its verify pass, and whether it is fault-free.  On a
/// fault-free fleet a failed request, a load report that changes between
/// executions and a counter mismatch in the verify pass are all errors,
/// and traced runs measure max_rate_at_slo.
struct ServeSpec {
  const char* name;
  std::vector<serve::LoadConfig> subruns;
  serve::LoadConfig verify;  ///< cross-check pass (LoadConfig::verify)
  bool fault_free = false;
};

/// The fixed ladder of mean gaps (ticks) around the fleet's knee, from
/// light to heavy.  Measured on a 4-core host: gap 10000 sheds none of
/// 4000 requests, 5000 sheds ~1%, 3000 sheds ~40%.
constexpr std::uint64_t kLadderGaps[] = {7000, 6000, 5500, 5000, 4500, 4000};
constexpr int kLadderRequests = 4000;
constexpr double kSloTarget = 0.99;

/// Highest offered rate (requests per million ticks) at which the
/// SLO-met fraction stays >= 99%, linearly interpolated between the two
/// ladder rungs that bracket the crossing (clamped to the ladder).
double max_rate_at_slo(const Options& opts, Tracer* tracer) {
  std::vector<double> rate, met;
  for (std::uint64_t gap : kLadderGaps) {
    const serve::LoadResult r = timed_run_load(
        fleet_config(opts, opts.seed, kLadderRequests, gap), tracer);
    rate.push_back(1e6 / static_cast<double>(gap));
    met.push_back(static_cast<double>(r.total.slo_met) /
                  static_cast<double>(r.total.submitted));
  }
  if (met.front() < kSloTarget) return rate.front();
  for (std::size_t i = 0; i + 1 < met.size(); ++i) {
    if (met[i + 1] < kSloTarget) {
      const double t = (met[i] - kSloTarget) / (met[i] - met[i + 1]);
      return rate[i] + t * (rate[i + 1] - rate[i]);
    }
  }
  return rate.back();
}

RunResult run_serve(const Options& opts, Tracer* tracer,
                    const ServeSpec& spec) {
  RunResult result;
  KernelBook book;
  Metrics& e2e = result.end_to_end;
  Metrics& layers = result.layers;

  // Set-up is the serving-shape probe's operands and dense baselines:
  // run_load builds its fleet and request operands itself, inside the
  // timed call.
  std::unique_ptr<ServingProbe> probe;
  SetupTimes setup_s;
  KernelBook setup_book;  // dense baselines of later repetitions
  const auto teardown = [&] { probe.reset(); };
  const auto setup = [&](bool first) {
    probe = std::make_unique<ServingProbe>(opts, tracer,
                                           first ? book : setup_book, first);
  };
  repeat_setup(teardown, setup, setup_s);
  const ServingProbeResult modeled = probe->run(tracer, book, result);

  std::vector<SubRunRecord> records(spec.subruns.size());
  std::uint64_t report_drift = 0;
  std::vector<double> ctas(spec.subruns.size(), 0.0);
  std::vector<double> submitted(spec.subruns.size(), 0.0);
  Tracer* serve_tracer = nullptr;
  const auto body = [&](std::size_t i, Stopwatch& sw) {
    serve::LoadResult r;
    try {
      r = timed_run_load(spec.subruns[i], serve_tracer);
    } catch (const std::exception& e) {
      sw.pause();
      ++result.attempted;
      result.fail(std::string(spec.name) + " run_load threw: " + e.what());
      return;
    }
    sw.pause();
    SubRunRecord& rec = records[i];
    const std::string report = r.to_json(spec.subruns[i]);
    const std::uint64_t hash = fnv1a(report.data(), report.size());
    ++result.attempted;
    if (rec.done) {
      if (hash == rec.report_hash) return;
      if (spec.fault_free) {
        result.fail(std::string(spec.name) + " sub-run " + std::to_string(i) +
                    ": load report differs from its first execution");
      } else {
        // Known engine defect: at threads > 1 a launch whose CTAs throw
        // different errors (an ECC detection and a brownout timeout)
        // rethrows whichever SM reported first, so a chaos trace can
        // take another retry path.  Counted, not failed.
        ++report_drift;
      }
      return;
    }
    rec.done = true;
    rec.report_hash = hash;
    ctas[i] = static_cast<double>(r.sim_ctas);
    submitted[i] = static_cast<double>(r.total.submitted);
    if (!accounting_holds(r.total)) {
      result.fail(std::string(spec.name) + " sub-run " + std::to_string(i) +
                  ": request accounting does not add up");
    }
    if (spec.fault_free && r.total.failed > 0) {
      result.fail(std::string(spec.name) + " sub-run " + std::to_string(i) +
                  ": " + std::to_string(r.total.failed) +
                  " requests failed on a fault-free fleet");
    }
    rec.result = std::move(r);
  };

  const std::size_t units = spec.subruns.size();
  const LoopResult loop_a = run_loop(units, opts.seconds, units, body);

  // Verify pass: every completed request is cross-checked against
  // direct dispatch on a reference device — output bytes always, and
  // SM-local counters on the fault-free fleet.
  {
    serve::LoadResult v;
    try {
      v = timed_run_load(spec.verify, tracer);
    } catch (const std::exception& e) {
      result.fail(std::string(spec.name) + " verify pass threw: " + e.what());
    }
    result.attempted += v.total.completed;
    const std::uint64_t counted =
        v.mismatches + (spec.fault_free ? v.counter_mismatches : 0);
    if (counted > 0) {
      result.failed += counted;
      result.failures.push_back(std::string(spec.name) + " verify pass: " +
                                std::to_string(v.mismatches) +
                                " output and " +
                                std::to_string(v.counter_mismatches) +
                                " counter mismatches");
    }
    if (spec.fault_free && v.total.failed > 0) {
      result.fail(std::string(spec.name) + " verify pass: " +
                  std::to_string(v.total.failed) + " requests failed");
    }
    layers["serve.verify_mismatches"] = {
        static_cast<double>(v.mismatches + v.counter_mismatches), "count"};
  }

  // Fault-free load reports are identical at any thread count; chaos
  // ones only between single-thread runs (see report_drift).
  const std::string det_prefix = spec.fault_free ? "inv." : "serial.";
  Pooled pool;
  for (std::size_t i = 0; i < units; ++i) {
    if (!records[i].done) continue;
    pool.add(records[i].result);
    result.det(det_prefix + spec.name + " sub-run " + std::to_string(i) +
                   " load report",
               std::to_string(records[i].report_hash));
  }

  const double subm = static_cast<double>(pool.submitted);
  e2e["model_gpu_ms"] = {modeled.sparse_cycles / kModeledClockHz * 1e3, "ms"};
  e2e["mma_speedup_geomean"] = {modeled.speedup_geomean, "x"};
  e2e["goodput_per_mtick"] = {
      pool.final_ticks ? static_cast<double>(pool.slo_met) * 1e6 /
                             static_cast<double>(pool.final_ticks)
                       : 0.0,
      "req/Mtick"};
  e2e["p50_latency_ticks"] = {static_cast<double>(percentile(pool.latency, 50)),
                              "ticks"};
  e2e["p99_latency_ticks"] = {static_cast<double>(percentile(pool.latency, 99)),
                              "ticks"};
  e2e["slo_met_frac"] = {subm > 0 ? static_cast<double>(pool.slo_met) / subm : 0.0,
                         "frac"};
  for (const char* key : {"goodput_per_mtick", "p50_latency_ticks",
                          "p99_latency_ticks", "slo_met_frac"}) {
    result.det(det_prefix + spec.name + " " + key, e2e[key].value);
  }

  if (tracer != nullptr) {
    const auto count = [&](const char* name, std::uint64_t v) {
      layers[name] = {static_cast<double>(v), "count"};
    };
    layers["serve.host_us_per_request"] = {
        subm > 0 ? loop_a.median_pass_wall_s() / subm * 1e6 : 0.0, "us"};
    layers["serve.launches_per_request"] = {
        subm > 0 ? static_cast<double>(pool.attempts) / subm : 0.0, "count"};
    count("serve.attempts", pool.attempts);
    count("serve.retries", pool.retries);
    count("serve.fallbacks", pool.fallbacks);
    layers["serve.backoff_cycles"] = {static_cast<double>(pool.backoff),
                                      "cycles"};
    count("serve.failovers", pool.failovers);
    count("serve.migrated", pool.migrated);
    count("serve.hedges", pool.hedges);
    count("serve.quarantines", pool.quarantines);
    count("serve.restores", pool.restores);
    count("serve.policy_cache_rejections", pool.policy_rejections);
    count("serve.repro_bundles", pool.repro_bundles);
    count("serve.shed_queue", pool.shed_queue);
    count("serve.shed_deadline", pool.shed_deadline);
    count("serve.rejected", pool.rejected);
    count("serve.failed", pool.failed);
    for (const auto* group : {&pool.by_op, &pool.by_tenant}) {
      for (const auto& [name, lat] : *group) {
        layers["serve.p99_latency_ticks." + name] = {
            static_cast<double>(percentile(lat, 99)), "ticks"};
      }
    }
    count("serve.report_drift", report_drift);
    layers["serve.slo_miss_frac"] = {
        1.0 - e2e["slo_met_frac"].value, "frac"};
    if (spec.fault_free) {
      layers["serve.max_rate_at_slo"] = {max_rate_at_slo(opts, tracer),
                                         "req/Mtick"};
    }

    serve_tracer = tracer;
    trace_overhead(loop_a, run_loop(units, 0.0, loop_a.executions, body),
                   layers);
    kernel_layer_metrics(book, 1.0, layers);
  }
  repeat_setup(teardown, setup, setup_s);
  result.setup_reps = static_cast<int>(setup_s.wall.size());
  host_speed_metrics(loop_a, ctas, submitted, setup_s, e2e, layers);
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return result;
}

}  // namespace

RunResult run_serve_fleet(const Options& opts, Tracer* tracer) {
  // Read below the knee (gap 7000, ~70% of the ladder's crossing), where
  // p99 reflects service and short queueing rather than the backlog
  // cliff, so it is steady across seeds.  32 traces of 250 requests
  // (seeds derived from the run seed) rather than one long trace: the
  // timed loop then times each trace several times and keeps its
  // fastest execution, which a slow stretch of the host cannot move.
  ServeSpec spec;
  spec.name = "serve_fleet";
  for (std::uint64_t k = 0; k < 32; ++k) {
    spec.subruns.push_back(
        fleet_config(opts, mix64(opts.seed ^ (0xf1ee7 + k)), 250, 7000));
  }
  spec.fault_free = true;
  spec.verify = fleet_config(opts, mix64(opts.seed ^ 0x7e71f), 1000, 7000);
  spec.verify.verify = true;
  return run_serve(opts, tracer, spec);
}

RunResult run_serve_chaos(const Options& opts, Tracer* tracer) {
  // Chaos storms are placed from the trace seed, so one long trace
  // samples only a handful of storms and its tail swings with the seed.
  // 48 short traces (seeds derived from the run seed) sample 48x the
  // storms for the same request count, which steadies the pooled tail.
  // Gap 20000 keeps the fleet lightly loaded yet queued enough that the
  // median is not one request class's fixed service time.
  ServeSpec spec;
  spec.name = "serve_chaos";
  for (std::uint64_t k = 0; k < 48; ++k) {
    serve::LoadConfig c =
        fleet_config(opts, mix64(opts.seed ^ (0xc4a05 + k)), 625, 20000);
    c.chaos = true;
    c.device_chaos = true;
    spec.subruns.push_back(c);
  }
  // Kernel chaos forces verify off; device chaos keeps it on, which is
  // how failover bit-identity is checked.  Only output bytes must match:
  // once a kernel breaker opens, a request runs another rung than direct
  // dispatch picks, so its counters differ (reported in
  // serve.verify_mismatches, not counted as a failure).
  spec.verify = fleet_config(opts, mix64(opts.seed ^ 0x7e71f), 1000, 20000);
  spec.verify.device_chaos = true;
  spec.verify.verify = true;
  return run_serve(opts, tracer, spec);
}

}  // namespace perfbench
