#include "vsparse/bench/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include "vsparse/common/env.hpp"
#include "vsparse/common/json.hpp"
#include "vsparse/common/macros.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/gpusim/arch.hpp"
#include "vsparse/gpusim/engine/engine.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/gpusim/trace/export.hpp"
#include "vsparse/kernels/dense/gemm.hpp"

namespace vsparse::bench {

gpusim::Device fresh_device(const gpusim::DeviceConfig& hw,
                            const gpusim::SimOptions& sim,
                            std::size_t dram_bytes) {
  gpusim::DeviceConfig cfg = hw;
  cfg.dram_capacity = dram_bytes;
  gpusim::Device dev(cfg);
  dev.set_sim_options(sim);
  return dev;
}

bool arch_flag_present(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--arch=", 7) == 0) return true;
  }
  return false;
}

namespace {

gpusim::DeviceConfig resolve_arch_or_exit(const std::string& name) {
  if (name == "help" || name == "list") {
    std::fprintf(stderr, "architecture presets:\n");
    for (const gpusim::ArchPreset& preset : gpusim::arch_presets()) {
      std::fprintf(stderr, "  %-18s %s\n", preset.name, preset.summary);
    }
    std::exit(2);
  }
  const gpusim::ArchPreset* preset = gpusim::find_arch_preset(name.c_str());
  if (preset == nullptr) {
    std::fprintf(stderr, "unknown --arch=%s (known: %s)\n", name.c_str(),
                 gpusim::arch_preset_names().c_str());
    std::exit(2);
  }
  return preset->make();
}

std::vector<gpusim::DeviceConfig> resolve_arch_csv(const char* list) {
  std::vector<gpusim::DeviceConfig> out;
  const std::string s(list);
  std::size_t pos = 0;
  while (true) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(resolve_arch_or_exit(s.substr(pos, comma - pos)));
    if (comma == s.size()) break;
    pos = comma + 1;
  }
  return out;
}

const char* arch_flag_value(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--arch=", 7) == 0) return argv[i] + 7;
  }
  return nullptr;
}

}  // namespace

gpusim::DeviceConfig parse_arch(int argc, char** argv) {
  if (const char* value = arch_flag_value(argc, argv)) {
    return resolve_arch_csv(value).front();
  }
  return gpusim::DeviceConfig::volta_v100();
}

std::vector<gpusim::DeviceConfig> parse_arch_list(int argc, char** argv,
                                                  const char* defaults) {
  const char* value = arch_flag_value(argc, argv);
  return resolve_arch_csv(value != nullptr ? value : defaults);
}

void DriverSession::announce_arch() const {
  std::printf("# arch: %s\n", hw_.arch);
  std::fflush(stdout);
}

namespace {

bool g_any_case_failed = false;

void report_case_error(const std::string& name, const std::string& what) {
  std::printf("# case-error: {\"case\":\"%s\",\"error\":\"%s\"}\n",
              json_escape(name).c_str(), json_escape(what).c_str());
  std::fflush(stdout);
  g_any_case_failed = true;
}

/// Classified failures carry their taxonomy fields so a harness can
/// triage a suite run without parsing free-text messages.
void report_case_error(const std::string& name, const Error& e) {
  std::printf(
      "# case-error: {\"case\":\"%s\",\"error\":\"%s\",\"code\":\"%s\","
      "\"site\":\"%s\",\"retryable\":%s}\n",
      json_escape(name).c_str(), json_escape(e.what()).c_str(),
      error_code_name(e.code()), json_escape(e.site()).c_str(),
      e.retryable() ? "true" : "false");
  std::fflush(stdout);
  g_any_case_failed = true;
}

int clamp_threads(long n) {
  if (n <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }
  return static_cast<int>(n);
}

}  // namespace

bool run_case(const std::string& name, const std::function<void()>& fn) {
  try {
    fn();
    return true;
  } catch (const Error& e) {
    // The whole classified taxonomy — EccError, LaunchTimeoutError,
    // malformed formats, alloc overflow/exhaustion, bad dispatches.
    report_case_error(name, e);
  } catch (const std::exception& e) {
    report_case_error(name, std::string(e.what()));
  }
  return false;
}

int bench_exit_code() { return g_any_case_failed ? 1 : 0; }

int parse_threads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      return clamp_threads(std::strtol(argv[i] + 10, nullptr, 10));
    }
  }
  if (const char* env = env_get("VSPARSE_SIM_THREADS")) {
    if (*env != '\0') return clamp_threads(std::strtol(env, nullptr, 10));
  }
  return 1;
}

const char* threads_source(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) return "flag";
  }
  if (const char* env = env_get("VSPARSE_SIM_THREADS")) {
    if (*env != '\0') return "env";
  }
  return "default";
}

TraceSession::TraceSession(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      prefix_ = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--trace-sample=", 15) == 0) {
      const long long n = std::strtoll(argv[i] + 15, nullptr, 10);
      sample_ops_ = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    }
  }
}

TraceSession::~TraceSession() { finish(); }

gpusim::TraceOptions TraceSession::options() {
  gpusim::TraceOptions opts;
  if (enabled()) {
    opts.sink = &trace_;
    opts.sample_ops = sample_ops_;
  }
  return opts;
}

bool TraceSession::finish() {
  if (!enabled() || written_) return true;
  written_ = true;
  const bool ok = gpusim::write_trace_files(trace_, prefix_);
  if (ok) {
    std::printf("# trace: wrote %s.perfetto.json and %s.metrics.json "
                "(%zu launches, %zu events)\n",
                prefix_.c_str(), prefix_.c_str(), trace_.launches().size(),
                trace_.num_events());
  } else {
    std::printf("# trace: FAILED to write exports under prefix %s\n",
                prefix_.c_str());
  }
  std::fflush(stdout);
  return ok;
}

SanitizerSession::SanitizerSession(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sanitize") == 0) {
      enabled_ = true;  // bare flag: all tools
    } else if (std::strncmp(argv[i], "--sanitize=", 11) == 0) {
      enabled_ = true;
      if (!gpusim::parse_sanitizer_tools(argv[i] + 11, &opts_)) {
        std::fprintf(stderr,
                     "unknown tool in %s (expected a comma list of "
                     "race,sync,init,bounds or \"all\")\n",
                     argv[i]);
        std::exit(2);
      }
    } else if (std::strncmp(argv[i], "--sanitize-report=", 18) == 0) {
      report_path_ = argv[i] + 18;
    }
  }
}

SanitizerSession::~SanitizerSession() { finish(); }

gpusim::SanitizerOptions SanitizerSession::options() {
  gpusim::SanitizerOptions opts = opts_;
  opts.sink = enabled_ ? &sink_ : nullptr;
  return opts;
}

bool SanitizerSession::finish() {
  if (!enabled_ || finished_) return true;
  finished_ = true;
  std::uint64_t suppressed = 0;
  for (const gpusim::LaunchSanitizerRecord& launch : sink_.launches()) {
    suppressed += launch.suppressed;
  }
  std::printf(
      "# sanitizer: {\"launches\":%llu,\"reports\":%llu,\"suppressed\":%llu,"
      "\"race\":%llu,\"sync\":%llu,\"init\":%llu,\"bounds\":%llu}\n",
      static_cast<unsigned long long>(sink_.num_launches()),
      static_cast<unsigned long long>(sink_.num_reports()),
      static_cast<unsigned long long>(suppressed),
      static_cast<unsigned long long>(
          sink_.num_reports(gpusim::SanitizerTool::kRace)),
      static_cast<unsigned long long>(
          sink_.num_reports(gpusim::SanitizerTool::kSync)),
      static_cast<unsigned long long>(
          sink_.num_reports(gpusim::SanitizerTool::kInit)),
      static_cast<unsigned long long>(
          sink_.num_reports(gpusim::SanitizerTool::kBounds)));
  bool ok = true;
  if (!report_path_.empty()) {
    ok = gpusim::write_sanitizer_report(sink_, report_path_);
    std::printf(ok ? "# sanitizer: wrote %s\n"
                   : "# sanitizer: FAILED to write %s\n",
                report_path_.c_str());
  }
  std::fflush(stdout);
  return ok;
}

SimThroughput::SimThroughput(int threads, const char* source)
    : threads_(threads),
      source_(source),
      start_ctas_(gpusim::total_simulated_ctas()),
      start_(std::chrono::steady_clock::now()) {}

void SimThroughput::print_summary() const {
  const std::uint64_t ctas = gpusim::total_simulated_ctas() - start_ctas_;
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double rate = secs > 0.0 ? static_cast<double>(ctas) / secs : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "# throughput: {\"sim_ctas\":%llu,\"wall_seconds\":%.3f,"
      "\"ctas_per_sec\":%.1f,\"threads\":%d,"
      "\"threads_source\":\"%s\",\"host_cores\":%u}\n",
      static_cast<unsigned long long>(ctas), secs, rate, threads_, source_,
      cores);
}

double DenseBaseline::hgemm_cycles(int m, int k, int n) {
  const auto key = std::make_tuple(m, k, n);
  if (auto it = half_.find(key); it != half_.end()) return it->second;
  gpusim::Device dev = fresh_device(hw_, sim_);
  auto a = dev.alloc<half_t>(static_cast<std::size_t>(m) * k);
  auto b = dev.alloc<half_t>(static_cast<std::size_t>(k) * n);
  auto c = dev.alloc<half_t>(static_cast<std::size_t>(m) * n);
  DenseDevice<half_t> da{a, m, k, k, Layout::kRowMajor};
  DenseDevice<half_t> db{b, k, n, n, Layout::kRowMajor};
  DenseDevice<half_t> dc{c, m, n, n, Layout::kRowMajor};
  const double cycles =
      kernels::hgemm_tcu(dev, da, db, dc).cycles(hw_, params_);
  half_.emplace(key, cycles);
  return cycles;
}

double DenseBaseline::sgemm_cycles(int m, int k, int n) {
  const auto key = std::make_tuple(m, k, n);
  if (auto it = single_.find(key); it != single_.end()) return it->second;
  gpusim::Device dev = fresh_device(hw_, sim_);
  auto a = dev.alloc<float>(static_cast<std::size_t>(m) * k);
  auto b = dev.alloc<float>(static_cast<std::size_t>(k) * n);
  auto c = dev.alloc<float>(static_cast<std::size_t>(m) * n);
  DenseDevice<float> da{a, m, k, k, Layout::kRowMajor};
  DenseDevice<float> db{b, k, n, n, Layout::kRowMajor};
  DenseDevice<float> dc{c, m, n, n, Layout::kRowMajor};
  const double cycles =
      kernels::sgemm_fpu(dev, da, db, dc).cycles(hw_, params_);
  single_.emplace(key, cycles);
  return cycles;
}

}  // namespace vsparse::bench
