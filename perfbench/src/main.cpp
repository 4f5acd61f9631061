// vsbench — the repository benchmark program.
//
//   vsbench --workload NAME --seed N --seconds S --trace 0|1
//           [--threads N] [--commit SHA] [--source-digest HEX]
//           [--trace-out FILE] [--det-out FILE]
//
// Runs one workload (spmm_dlmc, attention_tcu, serve_fleet,
// serve_chaos) and prints, as its last stdout line, one JSON object
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value":V,"unit":U}.  A `# provenance:` line
// precedes it.  Any failed check prints its reason on stderr and makes
// the exit code 1; usage errors exit 2.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Engine threads: fixed at 4, never more than the host's cores.
constexpr int kEngineThreads = 4;

#if defined(__clang__)
const std::string kCompiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#else
const std::string kCompiler = "unknown";
#endif

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "vsbench: %s\n"
               "usage: vsbench --workload spmm_dlmc|attention_tcu|serve_fleet|"
               "serve_chaos --seed N --seconds S --trace 0|1 [--threads N]\n",
               error.c_str());
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  out = v;
  return true;
}

struct Provenance {
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Options parse(int argc, char** argv, Provenance& prov) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_threads = false;
  std::uint64_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    std::uint64_t n = 0;
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      if (!parse_u64(value, o.seed)) usage("bad --seed " + value);
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_u64(value, n) || n > 3600) usage("bad --seconds " + value);
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
      have_trace = true;
    } else if (key == "--threads") {
      if (!parse_u64(value, threads) || threads == 0 || threads > 256) {
        usage("bad --threads " + value);
      }
      have_threads = true;
    } else if (key == "--commit") {
      prov.commit = value;
    } else if (key == "--source-digest") {
      prov.source_digest = value;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else if (key == "--det-out") {
      o.det_out = value;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  const unsigned cores = std::thread::hardware_concurrency();
  if (have_threads) {
    o.threads = static_cast<int>(threads);
    o.threads_source = "flag";
  } else if (cores > 0 && cores < static_cast<unsigned>(kEngineThreads)) {
    o.threads = static_cast<int>(cores);
    o.threads_source = "fixed-clamped-to-cores";
  } else {
    o.threads = kEngineThreads;
    o.threads_source = "fixed";
  }
  return o;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_provenance(const Options& o, const Provenance& p) {
  std::printf(
      "# provenance: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"host_cores\":%u,\"engine_threads\":%d,"
      "\"threads_source\":\"%s\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\",\"march_native\":%s,\"commit\":\"%s\","
      "\"source_digest\":\"%s\"}\n",
      json_escape(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency(),
      o.threads, o.threads_source.c_str(), PERFBENCH_BUILD_TYPE,
      json_escape(kCompiler).c_str(),
      PERFBENCH_MARCH_NATIVE ? "true" : "false",
      json_escape(p.commit).c_str(), json_escape(p.source_digest).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Provenance prov;
  const Options opts = parse(argc, argv, prov);
  RunResult (*run)(const Options&, Tracer*) = nullptr;
  if (opts.workload == "spmm_dlmc") run = run_spmm_dlmc;
  if (opts.workload == "attention_tcu") run = run_attention_tcu;
  if (opts.workload == "serve_fleet") run = run_serve_fleet;
  if (opts.workload == "serve_chaos") run = run_serve_chaos;
  if (run == nullptr) usage("unknown workload " + opts.workload);

  print_provenance(opts, prov);
  std::fflush(stdout);

  Tracer tracer;
  RunResult result;
  try {
    result = run(opts, opts.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    ++result.attempted;
    result.fail(std::string("workload threw: ") + e.what());
  }

  if (opts.trace) {
    engine_probes(opts, result.layers);
    span_layer_metrics(tracer, result.setup_reps, result.layers);
    const std::uint64_t checked = result.attempted;
    result.layers["reference.error_frac"] = {
        checked ? static_cast<double>(result.failed) /
                      static_cast<double>(checked)
                : 0.0,
        "frac"};
    if (!opts.trace_out.empty() && !tracer.write(opts.trace_out)) {
      std::fprintf(stderr, "vsbench: could not write %s\n",
                   opts.trace_out.c_str());
    }
  }

  // Emit exactly the catalogued metrics; a layer the workload does not
  // exercise reads 0, an end-to-end metric it failed to produce fails
  // the run.
  const auto& catalog = opts.trace ? layer_catalog() : end_to_end_catalog();
  const Metrics& produced = opts.trace ? result.layers : result.end_to_end;
  std::string metrics;
  for (const auto& [name, unit] : catalog) {
    double value = 0.0;
    if (const auto it = produced.find(name); it != produced.end()) {
      value = it->second.value;
    } else if (!opts.trace) {
      result.fail("end-to-end metric " + name + " was not produced");
    }
    if (!std::isfinite(value)) {
      result.fail("metric " + name + " is not finite");
      value = 0.0;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", name.c_str(), value,
                  unit.c_str());
    metrics += buf;
  }

  if (!opts.det_out.empty()) {
    std::ofstream det(opts.det_out);
    for (const auto& [key, value] : result.deterministic) {
      det << key << '\t' << value << '\n';
    }
    if (!det) {
      result.fail("could not write " + opts.det_out);
    }
  }

  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "vsbench: FAILED %s\n", f.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
