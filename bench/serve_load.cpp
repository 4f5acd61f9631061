// The multi-tenant serving load driver — replays a seeded open-loop
// request trace (SpMM / SDDMM / sparse attention from three tenants)
// through the fleet scheduler (serve/scheduler.hpp): EDF scheduling
// under deadline SLOs, per-tenant quotas and backlog bounds, kernel
// circuit breakers, device-level fault domains with failover and
// hedging, and optional chaos storms composed from the fault layer.
//
//   --requests=N        trace length (default 200)
//   --seed=S            trace + storm seed (default 2021)
//   --gap=TICKS         mean inter-arrival gap (default 30000)
//   --tenants=LIST      comma-separated subset of the default tenant
//                       mix (interactive,analytics,background)
//   --chaos             compose seeded chaos storms over the trace
//   --storms=N          storms per chaos kind (default 2)
//   --devices=N         fleet size (default 1)
//   --device-chaos      compose seeded whole-device storms (wedge /
//                       brownout / flap / death) over the trace
//   --device-storms=N   device storms per kind (default 1)
//   --no-hedge          disable hedged launches
//   --hedge-margin=P    hedge when remaining margin < P% of the SLO
//   --drain=D:B:E       operator drain of device D over ticks [B, E);
//                       repeatable
//   --verify            cross-check every completed request bit-for-bit
//                       against fault-free direct dispatch on a
//                       reference device (under --chaos: bit-exact
//                       recovery), and SM-local-counter-for-counter
//                       wherever the same kernel ran unperturbed
//   --retries=K         max retries per ladder rung (default 2)
//   --report=FILE       write the vsparse-load-v2 JSON report
//   --serve-report=FILE write the per-request vsparse-serve-v1 artifact
//   --repro=FILE        write the vsparse-repro-v1 flight-recorder
//                       artifact (replay with tools/replay)
//   --threads=N         engine threads (determinism demo: the report
//                       and every summary line must not change)
//
// Malformed or out-of-range flags print one structured
//   # case-error: {"flag":...,"error":...}
// line and exit 2 — never a silent fall-back to a default.
//
// Everything except the `# throughput:` line is deterministic: same
// seed and config give byte-identical output at any --threads=N.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "vsparse/bench/runner.hpp"
#include "vsparse/serve/scheduler.hpp"

namespace vsparse::bench {
namespace {

/// Structured CLI rejection: one machine-readable line, exit 2 (the
/// shell convention for usage errors; 1 is reserved for run failures).
[[noreturn]] void case_error(const char* flag, const std::string& error) {
  std::printf("# case-error: {\"flag\":\"%s\",\"error\":\"%s\"}\n", flag,
              error.c_str());
  std::exit(2);
}

/// Strict base-10 u64 parse: the whole token must be digits, no sign,
/// no overflow.  strtoull alone accepts "-1" (wraps) and "12abc"
/// (stops early) — exactly the UB-ish defaults this driver rejects.
bool parse_u64(const char* text, std::uint64_t& out) {
  if (text[0] == '\0' || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') return false;
  out = value;
  return true;
}

std::uint64_t flag_u64(int argc, char** argv, const char* name,
                       std::uint64_t fallback, std::uint64_t min,
                       std::uint64_t max) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) != 0 || argv[i][len] != '=') continue;
    std::uint64_t value = 0;
    if (!parse_u64(argv[i] + len + 1, value)) {
      case_error(name, std::string("not an unsigned integer: \\\"") +
                           (argv[i] + len + 1) + "\\\"");
    }
    if (value < min || value > max) {
      case_error(name, "out of range [" + std::to_string(min) + ", " +
                           std::to_string(max) + "]: " +
                           std::to_string(value));
    }
    return value;
  }
  return fallback;
}

bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

const char* flag_str(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

/// --tenants=a,b,c selects a subset of the default mix by name; an
/// empty or unknown selection is a config error, not an empty run.
std::vector<serve::TenantSpec> parse_tenants(const char* list) {
  const std::vector<serve::TenantSpec> defaults = serve::default_tenants();
  std::vector<serve::TenantSpec> picked;
  std::string text(list);
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string name =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!name.empty()) {
      bool found = false;
      for (const serve::TenantSpec& t : defaults) {
        if (t.name == name) {
          picked.push_back(t);
          found = true;
          break;
        }
      }
      if (!found) case_error("--tenants", "unknown tenant: " + name);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (picked.empty()) case_error("--tenants", "tenant set must not be empty");
  return picked;
}

/// --drain=DEV:BEGIN:END, repeatable.
std::vector<serve::DrainWindow> parse_drains(int argc, char** argv,
                                             int devices) {
  std::vector<serve::DrainWindow> drains;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--drain=", 8) != 0) continue;
    const std::string text(argv[i] + 8);
    const std::size_t c1 = text.find(':');
    const std::size_t c2 = c1 == std::string::npos ? c1 : text.find(':', c1 + 1);
    std::uint64_t dev = 0, begin = 0, end = 0;
    if (c2 == std::string::npos ||
        !parse_u64(text.substr(0, c1).c_str(), dev) ||
        !parse_u64(text.substr(c1 + 1, c2 - c1 - 1).c_str(), begin) ||
        !parse_u64(text.substr(c2 + 1).c_str(), end)) {
      case_error("--drain", "expected DEV:BEGIN:END, got \\\"" + text + "\\\"");
    }
    if (dev >= static_cast<std::uint64_t>(devices)) {
      case_error("--drain", "device " + std::to_string(dev) +
                                " outside fleet of " + std::to_string(devices));
    }
    if (begin >= end) case_error("--drain", "window must have BEGIN < END");
    drains.push_back({static_cast<int>(dev), begin, end});
  }
  return drains;
}

/// Any unrecognized --flag is a config error.  The allow-list covers
/// this driver plus everything DriverSession consumes.
void reject_unknown_flags(int argc, char** argv) {
  static const char* const known[] = {
      "--requests=", "--seed=",          "--gap=",          "--tenants=",
      "--storms=",   "--devices=",       "--device-storms=", "--hedge-margin=",
      "--drain=",    "--retries=",       "--report=",       "--serve-report=",
      "--repro=",    "--threads=",       "--arch=",         "--trace=",
      "--trace-sample=", "--sanitize=",  "--sanitize-report="};
  static const char* const known_bare[] = {"--chaos", "--device-chaos",
                                           "--no-hedge", "--verify",
                                           "--sanitize"};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    bool ok = false;
    for (const char* k : known) {
      if (std::strncmp(argv[i], k, std::strlen(k)) == 0) ok = true;
    }
    for (const char* k : known_bare) {
      if (std::strcmp(argv[i], k) == 0) ok = true;
    }
    if (!ok) case_error(argv[i], "unknown flag");
  }
}

void print_tenant(const char* tag, const serve::TenantStats& s) {
  std::printf(
      "# %s: {\"name\":\"%s\",\"submitted\":%llu,\"completed\":%llu,"
      "\"slo_met\":%llu,\"deadline_miss\":%llu,\"shed_queue\":%llu,"
      "\"shed_deadline\":%llu,\"rejected\":%llu,\"failed\":%llu,"
      "\"p50_latency_ticks\":%llu,\"p99_latency_ticks\":%llu}\n",
      tag, s.name.c_str(), static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.slo_met),
      static_cast<unsigned long long>(s.deadline_miss),
      static_cast<unsigned long long>(s.shed_queue),
      static_cast<unsigned long long>(s.shed_deadline),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.p50_latency_ticks),
      static_cast<unsigned long long>(s.p99_latency_ticks));
}

int run(int argc, char** argv) {
  reject_unknown_flags(argc, argv);
  DriverSession session(argc, argv);

  serve::LoadConfig config;
  config.requests = static_cast<int>(
      flag_u64(argc, argv, "--requests", 200, 1, 1'000'000));
  config.seed = flag_u64(argc, argv, "--seed", 2021, 0,
                         ~std::uint64_t{0} - 1);
  config.threads = session.threads();
  config.mean_gap_ticks =
      flag_u64(argc, argv, "--gap", 30'000, 1, 1'000'000'000);
  if (const char* list = flag_str(argc, argv, "--tenants")) {
    config.tenants = parse_tenants(list);
  }
  config.chaos = flag_present(argc, argv, "--chaos");
  config.storms_per_kind =
      static_cast<int>(flag_u64(argc, argv, "--storms", 2, 1, 64));
  config.verify = flag_present(argc, argv, "--verify");
  config.retry.max_retries =
      static_cast<int>(flag_u64(argc, argv, "--retries", 2, 0, 16));
  config.retry.seed = config.seed;
  config.devices = static_cast<int>(flag_u64(argc, argv, "--devices", 1, 1, 32));
  config.device_chaos = flag_present(argc, argv, "--device-chaos");
  config.device_storms_per_kind =
      static_cast<int>(flag_u64(argc, argv, "--device-storms", 1, 1, 64));
  config.hedge = !flag_present(argc, argv, "--no-hedge");
  config.hedge_margin_percent =
      static_cast<int>(flag_u64(argc, argv, "--hedge-margin", 25, 0, 100));
  config.drains = parse_drains(argc, argv, config.devices);

  std::printf("# Serve load: %d requests, seed %llu, mean gap %llu, "
              "chaos %s, verify %s, retries %d\n",
              config.requests, static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(config.mean_gap_ticks),
              config.chaos ? "on" : "off", config.verify ? "on" : "off",
              config.retry.max_retries);
  if (config.devices > 1 || config.device_chaos || !config.drains.empty()) {
    std::printf("# fleet-config: {\"devices\":%d,\"device_chaos\":%s,"
                "\"device_storms\":%d,\"hedge\":%s,\"hedge_margin\":%d,"
                "\"drains\":%zu}\n",
                config.devices, config.device_chaos ? "true" : "false",
                config.device_storms_per_kind,
                config.hedge ? "true" : "false", config.hedge_margin_percent,
                config.drains.size());
  }

  serve::LoadResult result;
  run_case("serve_load", [&] { result = serve::run_load(config); });

  print_tenant("load-summary", result.total);
  for (const serve::TenantStats& t : result.tenants) {
    print_tenant("tenant", t);
  }
  std::printf(
      "# load-health: {\"goodput_per_mtick\":%.3f,\"final_tick\":%llu,"
      "\"quarantines\":%llu,\"half_opens\":%llu,\"restores\":%llu,"
      "\"reopens\":%llu,\"policy_cache_rejections\":%llu,"
      "\"mismatches\":%llu,\"counter_mismatches\":%llu}\n",
      result.goodput_per_mtick,
      static_cast<unsigned long long>(result.final_tick),
      static_cast<unsigned long long>(result.health.quarantines),
      static_cast<unsigned long long>(result.health.half_opens),
      static_cast<unsigned long long>(result.health.restores),
      static_cast<unsigned long long>(result.health.reopens),
      static_cast<unsigned long long>(result.policy_cache_rejections),
      static_cast<unsigned long long>(result.mismatches),
      static_cast<unsigned long long>(result.counter_mismatches));
  if (config.devices > 1 || config.device_chaos || !config.drains.empty()) {
    std::printf(
        "# fleet: {\"placements\":%llu,\"failovers\":%llu,\"migrated\":%llu,"
        "\"hedges\":%llu,\"hedge_wins_secondary\":%llu,"
        "\"hedge_cancelled\":%llu,\"probes\":%llu,\"drains\":%llu,"
        "\"drain_reopens\":%llu,\"restores\":%llu,\"devices_lost\":%llu,"
        "\"repro_bundles\":%llu,\"repro_dropped\":%llu}\n",
        static_cast<unsigned long long>(result.fleet.placements),
        static_cast<unsigned long long>(result.fleet.failovers),
        static_cast<unsigned long long>(result.fleet.migrated),
        static_cast<unsigned long long>(result.fleet.hedges),
        static_cast<unsigned long long>(result.fleet.hedge_wins_secondary),
        static_cast<unsigned long long>(result.fleet.hedge_cancelled),
        static_cast<unsigned long long>(result.fleet.probes),
        static_cast<unsigned long long>(result.fleet.drains),
        static_cast<unsigned long long>(result.fleet.drain_reopens),
        static_cast<unsigned long long>(result.fleet.restores),
        static_cast<unsigned long long>(result.fleet.devices_lost),
        static_cast<unsigned long long>(result.repro_bundles),
        static_cast<unsigned long long>(result.repro_dropped));
  }
  if (result.mismatches > 0 || result.counter_mismatches > 0) {
    std::printf("# load-health: FAIL — scheduled requests were not "
                "identical to direct dispatch\n");
  }

  if (const char* path = flag_str(argc, argv, "--report")) {
    std::ofstream out(path);
    out << result.to_json(config) << "\n";
    std::printf("# load-report: %s %s\n", path,
                out.good() ? "written" : "WRITE FAILED");
  }
  if (const char* path = flag_str(argc, argv, "--serve-report")) {
    std::ofstream out(path);
    out << result.report_json << "\n";
    std::printf("# serve-report: %s %s\n", path,
                out.good() ? "written" : "WRITE FAILED");
  }
  if (const char* path = flag_str(argc, argv, "--repro")) {
    std::ofstream out(path);
    out << result.repro_json << "\n";
    std::printf("# repro: %s %s\n", path,
                out.good() ? "written" : "WRITE FAILED");
  }
  const bool failed = result.mismatches > 0 || result.counter_mismatches > 0;
  return session.finish() | (failed ? 1 : 0);
}

}  // namespace
}  // namespace vsparse::bench

int main(int argc, char** argv) { return vsparse::bench::run(argc, argv); }
