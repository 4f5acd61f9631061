// Shared execution plumbing for the figure/table benches: a fresh
// simulated device per kernel run (so cache state and the memory arena
// are independent across measurements) and memoized dense-GEMM
// baselines (each distinct (M,K,N) is simulated once; the paper's
// speedups all normalize to cublasHgemm/Sgemm).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "vsparse/gpusim/costmodel.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/sanitizer/report.hpp"
#include "vsparse/gpusim/trace/trace.hpp"
#include "vsparse/kernels/api.hpp"

namespace vsparse::bench {

/// A device sized for bench problems on architecture `hw` (a
/// gpusim/arch.hpp preset or a hand-modified config), with the host
/// execution policy `sim` baked in: every launch on it inherits
/// `sim`'s threads, tracing and sanitizing.
gpusim::Device fresh_device(const gpusim::DeviceConfig& hw,
                            const gpusim::SimOptions& sim,
                            std::size_t dram_bytes = std::size_t{1} << 30);

/// The simulated architecture for a bench driver: `--arch=NAME` looks
/// up the named preset table (gpusim/arch.hpp); no flag returns the
/// paper's volta-v100, keeping default driver output byte-identical.
/// `--arch=help` lists the table and exits; an unknown name is a usage
/// error (exit 2).  A comma list resolves to its first entry (the
/// cross-architecture drivers read the full list via parse_arch_list).
gpusim::DeviceConfig parse_arch(int argc, char** argv);

/// Multi-architecture form for comparison drivers: `--arch=A,B,...`
/// resolves every name against the preset table; without the flag the
/// driver's `defaults` comma list is used.
std::vector<gpusim::DeviceConfig> parse_arch_list(int argc, char** argv,
                                                  const char* defaults);

/// Whether an explicit --arch=NAME flag was passed (drivers echo a
/// `# arch:` line only then).
bool arch_flag_present(int argc, char** argv);

/// Host thread count for the simulator, shared by every bench driver.
/// Sources, in priority order: a `--threads=N` argument, the
/// VSPARSE_SIM_THREADS environment variable, default 1 (the serial,
/// historically bit-exact engine).  N <= 0 requests one worker per
/// hardware thread.  The returned value is always >= 1.
int parse_threads(int argc, char** argv);

/// Where parse_threads got its answer from: "flag" (--threads=N),
/// "env" (VSPARSE_SIM_THREADS), or "default".  Recorded in the
/// throughput JSON so trajectory entries carry their provenance.
const char* threads_source(int argc, char** argv);

/// Run one bench case body under an error boundary.  A throwing case
/// does not abort the suite: the failure is reported as one
/// machine-readable line on stdout and the driver keeps going with the
/// remaining cases.  A classified vsparse::Error (the serve taxonomy —
/// EccError, LaunchTimeoutError, malformed formats, alloc failures,
/// bad dispatches) carries its machine-readable fields:
///
///   # case-error: {"case":"fig17 v=2 n=64 ...","error":"...",
///                  "code":"ecc_uncorrectable","site":"gpusim.ecc",
///                  "retryable":true}
///
/// while an unclassified exception reports the legacy two-field form.
/// Returns true iff the body completed.  Successful cases print
/// nothing, so a fully clean run's output is byte-identical to the
/// pre-boundary drivers.
bool run_case(const std::string& name, const std::function<void()>& fn);

/// Process exit code for a bench driver: 0 if every run_case body
/// completed, 1 if any case failed.  Resets nothing; call once at the
/// end of main().
int bench_exit_code();

/// Launch tracing for a bench driver, driven by command-line flags:
///
///   --trace=PREFIX     enable tracing; at exit write
///                      PREFIX.perfetto.json and PREFIX.metrics.json
///   --trace-sample=N   additionally record every Nth warp-level
///                      instruction as a warp_op event (default 0: off)
///
/// Without --trace the session is inert: options() returns a disabled
/// TraceOptions (null sink) and nothing is written or printed, so a
/// driver's stdout is byte-identical to the pre-trace build.  With
/// --trace, finish() (also called from the destructor) writes both
/// export files once and prints a one-line `# trace: ...` note.
class TraceSession {
 public:
  TraceSession(int argc, char** argv);
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  bool enabled() const { return !prefix_.empty(); }

  /// TraceOptions to install in a SimOptions (and, through
  /// fresh_device, in the device defaults every launch inherits).
  gpusim::TraceOptions options();

  /// Write the exports now (idempotent).  Returns true if the files
  /// were written successfully or tracing is disabled.
  bool finish();

  gpusim::Trace& trace() { return trace_; }

 private:
  std::string prefix_;
  std::uint64_t sample_ops_ = 0;
  bool written_ = false;
  gpusim::Trace trace_;
};

/// Kernel hazard analysis for a bench driver, driven by command-line
/// flags:
///
///   --sanitize[=LIST]       enable the sanitizer; LIST is a comma
///                           list of tools (race,sync,init,bounds;
///                           "all" or a bare --sanitize = everything)
///   --sanitize-report=FILE  at exit write the vsparse-sanitizer-v1
///                           JSON report to FILE
///
/// Without --sanitize the session is inert: options() returns a
/// disabled SanitizerOptions (null sink) and nothing is printed, so a
/// driver's stdout is byte-identical to the pre-sanitizer build.  With
/// it, finish() (also called from the destructor) prints a one-line
/// `# sanitizer: ...` summary and writes the report file if requested.
class SanitizerSession {
 public:
  SanitizerSession(int argc, char** argv);
  ~SanitizerSession();
  SanitizerSession(const SanitizerSession&) = delete;
  SanitizerSession& operator=(const SanitizerSession&) = delete;

  bool enabled() const { return enabled_; }

  /// SanitizerOptions to install in a SimOptions (and, through
  /// fresh_device, in the device defaults every launch inherits).
  gpusim::SanitizerOptions options();

  /// Print the summary / write the report now (idempotent).  Returns
  /// true if the report file (when requested) was written successfully
  /// or sanitizing is disabled.
  bool finish();

  gpusim::Sanitizer& sanitizer() { return sink_; }

 private:
  bool enabled_ = false;
  gpusim::SanitizerOptions opts_;
  std::string report_path_;
  bool finished_ = false;
  gpusim::Sanitizer sink_;
};

/// Wall-clock throughput of the simulator itself (how fast the host
/// simulates, not how fast the modeled GPU would run).  Snapshot at
/// construction, then print_summary() emits one JSON line:
///
///   # throughput: {"sim_ctas":123,"wall_seconds":4.5,
///                  "ctas_per_sec":27.3,"threads":8,
///                  "threads_source":"flag","host_cores":4}
///
/// `threads_source` says where the worker count came from (flag, env,
/// or default) and `host_cores` is the machine's hardware concurrency —
/// together they let trajectory readers judge whether two entries'
/// wall-clock numbers are comparable.
class SimThroughput {
 public:
  explicit SimThroughput(int threads, const char* source = "default");

  /// Print the summary JSON line to stdout.
  void print_summary() const;

 private:
  int threads_;
  const char* source_;
  std::uint64_t start_ctas_;
  std::chrono::steady_clock::time_point start_;
};

/// The shared per-driver session every figure/table bench opens first:
/// one declaration wires up the common command-line surface
///
///   --threads=N             host simulation threads (parse_threads)
///   --arch=NAME             architecture preset (parse_arch); all
///                           devices and cost evaluations the driver
///                           builds through the session use it
///   --trace=PREFIX          Perfetto/metrics launch tracing
///   --trace-sample=N        sampled warp-op events
///   --sanitize[=LIST]       kernel hazard analysis (SanitizerSession)
///   --sanitize-report=FILE  vsparse-sanitizer-v1 JSON export
///
/// and the standard epilogue.  Usage:
///
///   DriverSession session(argc, argv);
///   const gpusim::SimOptions& sim = session.sim();
///   ...
///   return session.finish();   // throughput line, trace exports,
///                              // sanitizer summary, bench_exit_code()
///
/// finish() emits in the exact order the hand-rolled drivers did
/// (throughput summary, then the `# trace:` note, then the
/// `# sanitizer:` summary), so converting a driver leaves its clean-run
/// stdout byte-identical.  An explicit --arch=NAME additionally prints
/// one `# arch: NAME` line up front (no flag, no line).
class DriverSession {
 public:
  DriverSession(int argc, char** argv)
      : trace_(argc, argv),
        sanitize_(argc, argv),
        sim_{.threads = parse_threads(argc, argv),
             .trace = trace_.options(),
             .sanitize = sanitize_.options()},
        throughput_(sim_.threads, threads_source(argc, argv)),
        hw_(parse_arch(argc, argv)) {
    if (arch_flag_present(argc, argv)) announce_arch();
  }

  /// SimOptions with threads, tracing, and sanitizing installed; pass
  /// to kernels or fresh_device so every launch inherits them.
  const gpusim::SimOptions& sim() const { return sim_; }
  int threads() const { return sim_.threads; }
  TraceSession& trace() { return trace_; }
  SanitizerSession& sanitize() { return sanitize_; }

  /// The simulated architecture (--arch preset; volta-v100 default).
  const gpusim::DeviceConfig& hw() const { return hw_; }
  const char* arch() const { return hw_.arch; }

  /// A fresh device on this session's architecture with its SimOptions
  /// installed — what most figure drivers should build per case.
  gpusim::Device device(std::size_t dram_bytes = std::size_t{1} << 30) const {
    return fresh_device(hw_, sim_, dram_bytes);
  }

  /// Standard driver epilogue; returns the process exit code.
  int finish() {
    throughput_.print_summary();
    trace_.finish();
    sanitize_.finish();
    return bench_exit_code();
  }

 private:
  void announce_arch() const;

  TraceSession trace_;
  SanitizerSession sanitize_;
  gpusim::SimOptions sim_;
  SimThroughput throughput_;
  gpusim::DeviceConfig hw_;
};

/// Memoized dense baselines under one hardware model: each GEMM runs on
/// a fresh device built from `hw` and is priced at `hw`, so an `--arch`
/// run's baseline sees that architecture's SM count and L2 too.
class DenseBaseline {
 public:
  explicit DenseBaseline(
      gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100(),
      gpusim::CostParams params = {}, gpusim::SimOptions sim = {})
      : hw_(hw), params_(params), sim_(sim) {}

  /// Model cycles of the cublasHgemm stand-in on (MxK)·(KxN).
  double hgemm_cycles(int m, int k, int n);
  /// Model cycles of the cublasSgemm stand-in.
  double sgemm_cycles(int m, int k, int n);

  const gpusim::DeviceConfig& hw() const { return hw_; }
  const gpusim::CostParams& params() const { return params_; }

 private:
  gpusim::DeviceConfig hw_;
  gpusim::CostParams params_;
  gpusim::SimOptions sim_;
  std::map<std::tuple<int, int, int>, double> half_;
  std::map<std::tuple<int, int, int>, double> single_;
};

}  // namespace vsparse::bench
