#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

void RunResult::det(const std::string& key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  deterministic.emplace_back(key, buf);
}

// ---- spans ------------------------------------------------------------

int Tracer::open(const char* name) {
  spans_.push_back({name, current_, Clock::now(), {}});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  SpanRecord& s = spans_[static_cast<std::size_t>(index)];
  s.end = Clock::now();
  current_ = s.parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          seconds_between(s.start, s.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] +=
        seconds_between(spans_[i].start, spans_[i].end) - child_s[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  out << "{\"schema\":\"vsbench-spans-v1\",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"parent\":%d,\"start_us\":%.3f,"
                  "\"dur_us\":%.3f}",
                  i ? ",\n" : "\n", s.name, s.parent,
                  seconds_between(origin, s.start) * 1e6,
                  seconds_between(s.start, s.end) * 1e6);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---- timed loop -------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double interpolated_percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = static_cast<double>(v.size() - 1) * p / 100.0;
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double median_sum(const std::vector<std::vector<double>>& per_unit) {
  double sum = 0.0;
  for (const std::vector<double>& s : per_unit) sum += median(s);
  return sum;
}

}  // namespace

double LoopResult::median_pass_wall_s() const {
  return median_sum(unit_wall_s);
}

double LoopResult::median_pass_cpu_s() const { return median_sum(unit_cpu_s); }

LoopResult run_loop(std::size_t units, double seconds, std::uint64_t min_execs,
                    const std::function<void(std::size_t, Stopwatch&)>& body) {
  LoopResult r;
  r.unit_wall_s.resize(units);
  r.unit_cpu_s.resize(units);
  if (units == 0) return r;
  const Clock::time_point t0 = Clock::now();
  std::size_t unit = 0;
  while (r.executions < min_execs ||
         seconds_between(t0, Clock::now()) < seconds) {
    Stopwatch sw;
    sw.start();
    body(unit, sw);
    sw.pause();
    const double timed = sw.wall();
    r.unit_wall_s[unit].push_back(timed);
    r.unit_cpu_s[unit].push_back(sw.cpu());
    r.timed_s += timed;
    ++r.executions;
    unit = (unit + 1) % units;
  }
  return r;
}

void repeat_setup(const std::function<void()>& teardown,
                  const std::function<void(bool)>& setup, SetupTimes& times) {
  const std::size_t before = times.wall.size();
  const Clock::time_point begin = Clock::now();
  while (times.wall.size() - before < 3 ||
         (times.wall.size() - before < 50 &&
          seconds_between(begin, Clock::now()) < 0.5)) {
    teardown();
    Stopwatch sw;
    sw.start();
    setup(times.wall.empty());
    sw.pause();
    times.wall.push_back(sw.wall());
    times.cpu.push_back(sw.cpu());
  }
}

// ---- kernel accounting ------------------------------------------------

const char* KernelBook::span_name(const char* kernel) {
  // Node-based map: the c_str() of a stored name never moves.
  static std::map<std::string, std::string> names;
  auto it = names.find(kernel);
  if (it == names.end()) {
    it = names.emplace(kernel, std::string("kernels.") + kernel).first;
  }
  return it->second.c_str();
}

void KernelBook::note(const char* name, const kernels::KernelRun& run,
                      double seconds, bool first) {
  KernelTally& t = tallies_[name];
  t.host_s += seconds;
  t.timed_ctas += run.stats.ctas_launched;
  inside_s_ += seconds;
  if (first) {
    ++t.launches;
    t.ctas += run.stats.ctas_launched;
    t.stats += run.stats;
  }
}

gpusim::CostEstimate KernelBook::cost(const kernels::KernelRun& run,
                                      Tracer* tracer, bool count_bound) {
  Span span(tracer, "costmodel");
  gpusim::CostEstimate est =
      run.cost(gpusim::DeviceConfig::volta_v100(), gpusim::CostParams{});
  if (count_bound) ++bound_by_[est.bound_by];
  return est;
}

void KernelBook::reset_timing() {
  for (auto& [name, t] : tallies_) {
    t.host_s = 0;
    t.timed_ctas = 0;
  }
  inside_s_ = 0;
}

void host_speed_metrics(const LoopResult& a, const std::vector<double>& ctas,
                        const std::vector<double>& requests,
                        const SetupTimes& setup, Metrics& e2e,
                        Metrics& layers) {
  double total_ctas = 0.0, total_requests = 0.0;
  for (double x : ctas) total_ctas += x;
  for (double x : requests) total_requests += x;
  const auto per = [](double work, double secs) {
    return secs > 0.0 ? work / secs : 0.0;
  };
  const double cpu_s = a.median_pass_cpu_s();
  const double wall_s = a.median_pass_wall_s();
  e2e["setup_s"] = {median(setup.cpu), "s"};
  e2e["sim_ctas_per_cpu_s"] = {per(total_ctas, cpu_s), "CTAs/cpu-s"};
  e2e["requests_per_cpu_s"] = {per(total_requests, cpu_s), "req/cpu-s"};
  layers["wall.setup_s"] = {median(setup.wall), "s"};
  layers["wall.sim_ctas_per_s"] = {per(total_ctas, wall_s), "CTAs/s"};
  layers["wall.requests_per_s"] = {per(total_requests, wall_s), "req/s"};
}

void trace_overhead(const LoopResult& a, const LoopResult& b,
                    Metrics& layers) {
  layers["trace.overhead_s"] = {b.timed_s - a.timed_s, "s"};
  layers["trace.overhead_frac"] = {
      a.timed_s > 0 ? (b.timed_s - a.timed_s) / a.timed_s : 0.0, "frac"};
}

void kernel_layer_metrics(const KernelBook& book, double passes,
                          Metrics& layers) {
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  for (const auto& [name, t] : book.tallies()) {
    const std::string k = "kernels." + name + ".";
    const gpusim::KernelStats& s = t.stats;
    // Bytes the kernel asked the memory system for: every global sector
    // it loaded or stored plus its shared-memory traffic.
    const double bytes =
        static_cast<double>((s.global_load_sectors + s.global_store_sectors) *
                                32 +
                            s.smem_load_bytes + s.smem_store_bytes);
    layers[k + "host_s"] = {t.host_s * per_pass, "s"};
    layers[k + "launches"] = {static_cast<double>(t.launches), "count"};
    layers[k + "ctas"] = {static_cast<double>(t.ctas), "count"};
    layers[k + "ns_per_cta"] = {
        t.timed_ctas ? t.host_s * 1e9 / static_cast<double>(t.timed_ctas)
                     : 0.0,
        "ns"};
    layers[k + "warp_instrs"] = {static_cast<double>(s.total_instructions()),
                                 "count"};
    layers[k + "hmma"] = {static_cast<double>(s.op(gpusim::Op::kHmma)),
                          "count"};
    layers[k + "l1_miss_sectors"] = {static_cast<double>(s.l1_sector_misses),
                                     "count"};
    layers[k + "l2_sectors"] = {
        static_cast<double>(s.l2_sector_hits + s.l2_sector_misses), "count"};
    layers[k + "smem_wavefronts"] = {static_cast<double>(s.smem_wavefronts),
                                     "count"};
    layers[k + "computed_bytes"] = {bytes, "bytes"};
    layers[k + "ops_per_byte"] = {
        bytes > 0 ? static_cast<double>(s.math_instructions()) / bytes : 0.0,
        "ops/B"};
  }
  for (const auto& [term, n] : book.bound_by()) {
    layers["costmodel.bound_by." + term] = {static_cast<double>(n), "count"};
  }
}

// ---- checks -----------------------------------------------------------

std::uint64_t count_mismatches(const vsparse::half_t* got,
                               const vsparse::half_t* want, std::size_t n,
                               float atol, float rtol) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float g = static_cast<float>(got[i]);
    const float w = static_cast<float>(want[i]);
    // NaN in either fails the comparison.
    if (!(std::fabs(g - w) <= atol + rtol * std::fabs(w))) ++bad;
  }
  return bad;
}

std::uint64_t CheckQueue::run(int threads, RunResult& result) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> mismatched{0};
  std::mutex mu;  // guards result
  const auto worker = [&] {
    for (std::size_t i = next++; i < checks_.size(); i = next++) {
      std::string error;
      std::uint64_t bad = 0;
      try {
        bad = checks_[i].fn();
      } catch (const std::exception& e) {
        error = e.what();
      }
      mismatched += bad;
      std::lock_guard<std::mutex> lock(mu);
      ++result.attempted;
      if (!error.empty()) {
        result.fail(checks_[i].label + ": threw: " + error);
      } else if (bad > 0) {
        result.fail(checks_[i].label + ": " + std::to_string(bad) +
                    " elements outside tolerance");
      }
    }
  };
  std::vector<std::thread> pool;
  const int extra = std::max(0, threads - 1);
  pool.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  checks_.clear();
  return mismatched;
}

// ---- misc -------------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalog() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"setup_s", "s"},
      {"sim_ctas_per_cpu_s", "CTAs/cpu-s"},
      {"requests_per_cpu_s", "req/cpu-s"},
      {"peak_rss_mb", "MB"},
      {"model_gpu_ms", "ms"},
      {"mma_speedup_geomean", "x"},
      {"goodput_per_mtick", "req/Mtick"},
      {"p50_latency_ticks", "ticks"},
      {"p99_latency_ticks", "ticks"},
      {"slo_met_frac", "frac"},
  };
  return list;
}

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> list = [] {
    std::vector<std::pair<std::string, std::string>> l = {
        {"formats.generate_s", "s"},
        {"formats.upload_s", "s"},
        {"formats.upload_bytes", "bytes"},
    };
    for (const char* k : {"spmm_fpu_subwarp", "spmm_blocked_ell", "spmm_octet",
                          "sddmm_octet", "sparse_softmax", "hgemm_tcu"}) {
      const std::string p = std::string("kernels.") + k + ".";
      for (const auto& [m, unit] :
           std::vector<std::pair<const char*, const char*>>{
               {"host_s", "s"},
               {"launches", "count"},
               {"ctas", "count"},
               {"ns_per_cta", "ns"},
               {"warp_instrs", "count"},
               {"hmma", "count"},
               {"l1_miss_sectors", "count"},
               {"l2_sectors", "count"},
               {"smem_wavefronts", "count"},
               {"computed_bytes", "bytes"},
               {"ops_per_byte", "ops/B"}}) {
        l.emplace_back(p + m, unit);
      }
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"engine.launch_floor_us", "us"},
        {"engine.outside_launch_s", "s"},
        {"engine.thread_scaling", "x"},
        {"costmodel.host_s", "s"},
        {"costmodel.bound_by.issue", "count"},
        {"costmodel.bound_by.tcu", "count"},
        {"costmodel.bound_by.fma", "count"},
        {"costmodel.bound_by.alu", "count"},
        {"costmodel.bound_by.lsu", "count"},
        {"costmodel.bound_by.smem", "count"},
        {"costmodel.bound_by.l1", "count"},
        {"costmodel.bound_by.l2", "count"},
        {"costmodel.bound_by.dram", "count"},
        {"transformer.host_s", "s"},
        {"transformer.qk_cycles", "cycles"},
        {"transformer.softmax_cycles", "cycles"},
        {"transformer.av_cycles", "cycles"},
        {"readback.host_s", "s"},
        {"reference.host_s", "s"},
        {"reference.mismatches", "count"},
        {"reference.error_frac", "frac"},
        {"serve.host_us_per_request", "us"},
        {"serve.launches_per_request", "count"},
        {"serve.attempts", "count"},
        {"serve.retries", "count"},
        {"serve.fallbacks", "count"},
        {"serve.backoff_cycles", "cycles"},
        {"serve.failovers", "count"},
        {"serve.migrated", "count"},
        {"serve.hedges", "count"},
        {"serve.quarantines", "count"},
        {"serve.restores", "count"},
        {"serve.policy_cache_rejections", "count"},
        {"serve.repro_bundles", "count"},
        {"serve.shed_queue", "count"},
        {"serve.shed_deadline", "count"},
        {"serve.rejected", "count"},
        {"serve.failed", "count"},
        {"serve.verify_mismatches", "count"},
        {"serve.report_drift", "count"},
        {"serve.p99_latency_ticks.spmm", "ticks"},
        {"serve.p99_latency_ticks.sddmm", "ticks"},
        {"serve.p99_latency_ticks.attention", "ticks"},
        {"serve.p99_latency_ticks.interactive", "ticks"},
        {"serve.p99_latency_ticks.analytics", "ticks"},
        {"serve.p99_latency_ticks.background", "ticks"},
        {"serve.max_rate_at_slo", "req/Mtick"},
        {"serve.slo_miss_frac", "frac"},
        {"wall.setup_s", "s"},
        {"wall.sim_ctas_per_s", "CTAs/s"},
        {"wall.requests_per_s", "req/s"},
        {"trace.overhead_s", "s"},
        {"trace.overhead_frac", "frac"},
    };
    l.insert(l.end(), rest.begin(), rest.end());
    return l;
  }();
  return list;
}

}  // namespace perfbench
