// Shared pieces of the benchmark program: options, metric records,
// in-memory spans, per-kernel accounting, the timed case loop and the
// deferred output checks.
//
// Everything here lives outside the library under test: spans wrap the
// calls the benchmark makes into the library's public functions, so a
// traced run measures each layer from outside without changing it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "vsparse/gpusim/costmodel.hpp"
#include "vsparse/gpusim/stats.hpp"
#include "vsparse/kernels/api.hpp"

namespace perfbench {

namespace gpusim = vsparse::gpusim;
namespace kernels = vsparse::kernels;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Modeled V100 clock: cost-model cycles / this = modeled seconds.
/// gpusim/config.hpp derives its bandwidth constants at 1.38 GHz.
constexpr double kModeledClockHz = 1.38e9;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 4;
  std::string threads_source;
  std::string trace_out;  ///< spans file written at exit (traced runs)
  std::string det_out;    ///< deterministic-metric dump (self-test)
};

/// One named metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Everything a workload run hands back to main().
struct RunResult {
  Metrics end_to_end;
  Metrics layers;
  int setup_reps = 1;           ///< setup repetitions (setup_s = median)
  std::uint64_t attempted = 0;  ///< checked operations
  std::uint64_t failed = 0;     ///< thrown, mismatched or inconsistent
  std::vector<std::string> failures;  ///< one line each, for stderr
  /// Simulated results dumped for the self-test: "inv." keys must be
  /// identical at any engine thread count, "serial." keys between
  /// single-thread runs only.
  std::vector<std::pair<std::string, std::string>> deterministic;

  void fail(std::string what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(what));
  }
  void det(const std::string& key, double value);
  void det(const std::string& key, const std::string& value) {
    deterministic.emplace_back(key, value);
  }
};

// ---- spans ------------------------------------------------------------

/// In-memory span recorder.  A null Tracer* is the untraced fast path:
/// Span does nothing.  Single-threaded by design — only the benchmark's
/// own thread opens spans; the engine's workers never see the tracer.
class Tracer {
 public:
  int open(const char* name);
  void close(int index);

  /// Per span name: summed durations minus the time their child spans
  /// cover.
  std::map<std::string, double> self_seconds() const;

  /// Write every span once ({"spans":[...]}, microseconds since the
  /// first span).  Returns false if the file could not be written.
  bool write(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<SpanRecord> spans_;
  int current_ = -1;
};

class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ---- timing -----------------------------------------------------------

/// CPU time consumed so far by every thread of this process (the
/// benchmark's own and the engine's workers).  On a guest with steal-time
/// accounting it excludes time the host gave to other tenants.
double process_cpu_seconds();

/// Accumulating stopwatch with pause/resume, so readback done in the
/// middle of a case stays outside the timed interval.  It reads wall
/// time and process CPU time over the same intervals.
class Stopwatch {
 public:
  void start() {
    wall_ = cpu_ = 0;
    resume();
  }
  void pause() {
    if (running_) {
      wall_ += seconds_between(t0_, Clock::now());
      cpu_ += process_cpu_seconds() - cpu0_;
    }
    running_ = false;
  }
  void resume() {
    running_ = true;
    cpu0_ = process_cpu_seconds();
    t0_ = Clock::now();
  }
  /// Readings of a paused stopwatch.
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }

 private:
  Clock::time_point t0_{};
  double cpu0_ = 0;
  double wall_ = 0;
  double cpu_ = 0;
  bool running_ = false;
};

/// Cyclic timed loop over `units` work items.  `body(unit, sw)` runs one
/// item; `sw` is the item's stopwatch (running on entry; the body may
/// pause it).  Stops after at least `min_execs` executions once
/// `seconds` of wall time have passed.
struct LoopResult {
  std::vector<std::vector<double>> unit_wall_s;  ///< timed, per execution
  std::vector<std::vector<double>> unit_cpu_s;   ///< the same, CPU time
  std::uint64_t executions = 0;
  double timed_s = 0;  ///< sum of the wall readings

  /// Σ median(unit_wall_s[u]) and Σ median(unit_cpu_s[u]): one pass over
  /// the units, robust to a few slow executions.
  double median_pass_wall_s() const;
  double median_pass_cpu_s() const;
};

LoopResult run_loop(std::size_t units, double seconds, std::uint64_t min_execs,
                    const std::function<void(std::size_t, Stopwatch&)>& body);

/// Wall and CPU seconds of each set-up repetition.
struct SetupTimes {
  std::vector<double> wall, cpu;
};

/// Runs `setup(first)` at least three times and until half a second has
/// passed (at most 50 times), each after an untimed `teardown()` of the
/// previous state, appending each setup time to `times`.  Workloads call
/// it before and after their timed loop, so setup_s — the median of all
/// repetitions — samples the host at both ends of the run.
void repeat_setup(const std::function<void()>& teardown,
                  const std::function<void(bool)>& setup, SetupTimes& times);

// ---- per-kernel accounting -------------------------------------------

/// Counters of one kernel across the workload's first pass (exact and
/// thread-invariant, except as noted) plus its host time in the timed
/// loop.
struct KernelTally {
  std::uint64_t launches = 0;
  std::uint64_t ctas = 0;
  std::uint64_t timed_ctas = 0;
  double host_s = 0;
  gpusim::KernelStats stats;
};

class KernelBook {
 public:
  /// Time one kernel call (span "kernels.<name>") and count it.
  /// `first` adds its counters to the tally.
  template <class Fn>
  kernels::KernelRun call(const char* name, Tracer* tracer, bool first,
                          Fn&& fn) {
    Span span(tracer, span_name(name));
    const Clock::time_point t0 = Clock::now();
    kernels::KernelRun run = fn();
    const double dt = seconds_between(t0, Clock::now());
    note(name, run, dt, first);
    return run;
  }

  /// Cost-model evaluation (span "costmodel").  `count_bound` tallies
  /// the launch under its bounding term (the workload's sparse launches,
  /// not its dense baselines).
  gpusim::CostEstimate cost(const kernels::KernelRun& run, Tracer* tracer,
                            bool count_bound);

  const std::map<std::string, KernelTally>& tallies() const {
    return tallies_;
  }
  double inside_calls_s() const { return inside_s_; }
  const std::map<std::string, std::uint64_t>& bound_by() const {
    return bound_by_;
  }
  void reset_timing();

 private:
  static const char* span_name(const char* kernel);
  void note(const char* name, const kernels::KernelRun& run, double seconds,
            bool first);

  std::map<std::string, KernelTally> tallies_;
  std::map<std::string, std::uint64_t> bound_by_;
  double inside_s_ = 0;
};

// ---- output checks ----------------------------------------------------

/// fp16 comparison against a host reference: |got - want| <= atol +
/// rtol * |want|.  Returns the number of elements outside tolerance.
std::uint64_t count_mismatches(const vsparse::half_t* got,
                               const vsparse::half_t* want, std::size_t n,
                               float atol, float rtol);

/// Checks queued during the first pass and run after the timed loop, in
/// parallel on up to `threads` host threads.  Each check returns the
/// number of mismatched elements (0 = pass); a throw counts as a
/// failure too.
class CheckQueue {
 public:
  void add(std::string label, std::function<std::uint64_t()> check) {
    checks_.push_back({std::move(label), std::move(check)});
  }
  /// Runs everything; records attempts/failures in `result`.  Returns
  /// the total mismatched element count.
  std::uint64_t run(int threads, RunResult& result);

 private:
  struct Item {
    std::string label;
    std::function<std::uint64_t()> fn;
  };
  std::vector<Item> checks_;
};

// ---- helpers ----------------------------------------------------------

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
/// Nearest-rank percentile, the scheduler's convention.
template <class T>
T percentile(std::vector<T> v, int p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) * static_cast<std::size_t>(p) / 100];
}
/// Percentile with linear interpolation between order statistics, for
/// the few dozen cases of a batch workload: one case's cost then cannot
/// pin the result.
double interpolated_percentile(std::vector<double> v, int p);
/// FNV-1a over raw bytes (output identity across repeated passes).
std::uint64_t fnv1a(const void* data, std::size_t bytes);
/// splitmix64, to derive per-item seeds from the run seed.
std::uint64_t mix64(std::uint64_t x);
/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// The host-speed metrics, from every set-up repetition and the untraced
/// loop `a` with `ctas[u]` and `requests[u]` per unit.  End to end they
/// are per CPU second (setup_s, sim_ctas_per_cpu_s, requests_per_cpu_s):
/// other processes on a shared host stretch wall time but barely move
/// the CPU time the work takes.  The wall-clock rates, which such load
/// moves by 2x and more, are the per-layer wall.* metrics.
void host_speed_metrics(const LoopResult& a, const std::vector<double>& ctas,
                        const std::vector<double>& requests,
                        const SetupTimes& setup, Metrics& e2e,
                        Metrics& layers);

/// trace.overhead_*: the traced loop `b` against the untraced loop `a`
/// that did the same work.
void trace_overhead(const LoopResult& a, const LoopResult& b, Metrics& layers);

/// Fill the per-kernel and cost-model layer metrics from `book`.
/// `passes` normalizes host time to one pass of the workload.
void kernel_layer_metrics(const KernelBook& book, double passes,
                          Metrics& layers);

/// Every per-layer metric the benchmark reports, with its unit, in the
/// order printed.  Metrics a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_catalog();
/// Every end-to-end metric, with its unit.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog();

}  // namespace perfbench
