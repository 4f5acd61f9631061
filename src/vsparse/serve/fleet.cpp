#include "vsparse/serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/faults.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/softmax/sparse_softmax.hpp"

namespace vsparse::serve {
namespace {

// Force integer values so every ladder rung — including the dense-GEMM
// decode, whose fp16 accumulation order differs — is bit-identical to
// the fault-free run.  |value| <= 3, |B| <= 3 and K <= 128 keep every
// SpMM partial sum an exact fp16 integer.
void make_integer_values(std::vector<half_t>& values, std::uint64_t seed) {
  for (std::size_t j = 0; j < values.size(); ++j) {
    const std::uint64_t hv = mix64(seed ^ (0x7a1ee5 + j));
    const float mag = static_cast<float>(1 + (hv % 3));
    values[j] = half_t((hv & 8) ? mag : -mag);
  }
}

/// Service ticks of one completed kernel run: its instructions, L1
/// missed sectors and shared-memory wavefronts.
std::uint64_t service_of_run(const kernels::KernelRun& run) {
  const gpusim::KernelStats& s = run.stats;
  return s.total_instructions() + 4 * s.l1_sector_misses + s.smem_wavefronts;
}

/// Service ticks of one supervised report: per-attempt dispatch
/// overhead + recorded backoff + the successful run's modeled work.
std::uint64_t service_of_report(const ServeReport& rep) {
  std::uint64_t svc = kDispatchOverheadTicks *
                      std::max<std::uint64_t>(1, rep.attempts.size());
  svc += rep.backoff_cycles;
  if (rep.completed) svc += service_of_run(rep.run);
  return svc;
}

void fold_report(ExecOutcome& out, const ServeReport& rep) {
  out.service += service_of_report(rep);
  if (rep.completed) out.ctas += rep.run.stats.ctas_launched;
}

void fold_failure(ExecOutcome& out, const ServeReport& rep) {
  if (rep.completed) return;
  out.final_code = rep.final_code;
  out.final_site = rep.final_site;
}

bool same_bytes(std::span<const half_t> got, std::span<const half_t> want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size_bytes()) == 0;
}

/// Must the supervised run's SM-local counters equal direct dispatch's?
/// Only when nothing armed could legitimately move them — an ECC burst
/// counts its upsets, a watchdog budget can push the request down the
/// ladder — and the run finished on the kernel direct dispatch picked:
/// a fallback rung, or one an open breaker diverted to, counts
/// differently.
bool counters_comparable(const ExecEnv& env, const kernels::KernelRun& got,
                         const kernels::KernelRun& want) {
  return !env.ecc_burst && env.watchdog_cta_ops == 0 &&
         got.config.profile.name == want.config.profile.name;
}

ExecOutcome exec_spmm(Supervisor& sup, const RequestSpec& spec,
                      const ExecEnv& env) {
  gpusim::Device& dev = sup.device();
  Rng rng(spec.data_seed);
  Cvs a_host = make_cvs(spec.m, spec.k, spec.v, spec.sparsity, rng);
  make_integer_values(a_host.values, spec.data_seed);
  DenseMatrix<half_t> b_host(spec.k, 64);
  b_host.fill_random_int(rng);
  DenseMatrix<half_t> c_host(spec.m, 64);

  CvsDevice a = to_device(dev, a_host);
  DenseDevice<half_t> b = to_device(dev, b_host);
  DenseDevice<half_t> c = to_device(dev, c_host);

  // ECC burst: a sticky double-bit upset parked on the sparse operand
  // — the octet rungs keep detecting it until the ladder re-encodes A
  // at fresh addresses, and the repeated failures trip the breaker.
  gpusim::FaultPlan plan(mix64(spec.data_seed ^ 0x570) | 1,
                         /*ecc_enabled=*/true);
  if (env.ecc_burst) {
    plan.add_target({gpusim::FaultSite::kDramRead, a.values.addr(0),
                     /*bit=*/1, /*n_bits=*/2, /*sticky=*/true});
    dev.set_fault_plan(&plan);
  }

  kernels::SpmmOptions options;
  options.sim.threads = env.threads;
  if (env.watchdog_cta_ops) options.sim.watchdog_cta_ops = env.watchdog_cta_ops;

  const ServeReport& report = sup.submit_spmm(a, b, c, options);
  if (env.ecc_burst) dev.set_fault_plan(nullptr);

  ExecOutcome out;
  out.completed = report.completed;
  out.rejected = report.rejected;
  fold_report(out, report);
  fold_failure(out, report);
  if (env.verify && report.completed) {
    gpusim::Device& ref_dev = *env.ref_dev;
    ref_dev.reset();
    CvsDevice ra = to_device(ref_dev, a_host);
    DenseDevice<half_t> rb = to_device(ref_dev, b_host);
    DenseDevice<half_t> rc = to_device(ref_dev, c_host);
    const kernels::KernelRun ref =
        kernels::spmm(ref_dev, ra, rb, rc, {.sim = {.threads = env.threads}});
    out.bit_exact = same_bytes(c.buf.host(), rc.buf.host());
    if (counters_comparable(env, report.run, ref)) {
      out.counters_exact = report.run.stats.sm_local_equal(ref.stats);
    }
  }
  return out;
}

ExecOutcome exec_sddmm(Supervisor& sup, const RequestSpec& spec,
                       const ExecEnv& env) {
  gpusim::Device& dev = sup.device();
  Rng rng(spec.data_seed);
  DenseMatrix<half_t> a_host(spec.m, spec.k);
  a_host.fill_random_int(rng);
  DenseMatrix<half_t> b_host(spec.k, 64, Layout::kColMajor);
  b_host.fill_random_int(rng);
  Cvs mask_host = make_cvs_mask(spec.m, 64, spec.v, spec.sparsity, rng);

  DenseDevice<half_t> a = to_device(dev, a_host);
  DenseDevice<half_t> b = to_device(dev, b_host);
  CvsDevice mask = to_device(dev, mask_host);
  auto out_values = dev.alloc<half_t>(mask_host.values.size());

  // The SDDMM ladder has no re-encode rung, so a sticky target would
  // fail every rung; ECC bursts hit it with rate-based single-bit
  // upsets instead — corrected in flight, but counted by the engine.
  gpusim::FaultPlan plan(mix64(spec.data_seed ^ 0x570) | 1,
                         /*ecc_enabled=*/true);
  if (env.ecc_burst) {
    plan.set_rates({.dram_read = 1e-4});
    dev.set_fault_plan(&plan);
  }

  kernels::SddmmOptions options;
  options.sim.threads = env.threads;
  if (env.watchdog_cta_ops) options.sim.watchdog_cta_ops = env.watchdog_cta_ops;

  const ServeReport& report = sup.submit_sddmm(a, b, mask, out_values, options);
  if (env.ecc_burst) dev.set_fault_plan(nullptr);

  ExecOutcome out;
  out.completed = report.completed;
  out.rejected = report.rejected;
  fold_report(out, report);
  fold_failure(out, report);
  if (env.verify && report.completed) {
    gpusim::Device& ref_dev = *env.ref_dev;
    ref_dev.reset();
    DenseDevice<half_t> ra = to_device(ref_dev, a_host);
    DenseDevice<half_t> rb = to_device(ref_dev, b_host);
    CvsDevice rmask = to_device(ref_dev, mask_host);
    auto rout = ref_dev.alloc<half_t>(mask_host.values.size());
    const kernels::KernelRun ref = kernels::sddmm(
        ref_dev, ra, rb, rmask, rout, {.sim = {.threads = env.threads}});
    out.bit_exact = same_bytes(out_values.host(), rout.host());
    if (counters_comparable(env, report.run, ref)) {
      out.counters_exact = report.run.stats.sm_local_equal(ref.stats);
    }
  }
  return out;
}

// Attention composed scheduler-side from its supervised stages (the
// same QKᵀ∘C -> sparse softmax -> AV pipeline as transformer/
// attention.cpp, with both matrix products inside the fault boundary).
// The AV stage is skipped when QK fails, so supervisor numbering stays
// dense and a failed head costs one report, not two.
ExecOutcome exec_attention(Supervisor& sup, const RequestSpec& spec,
                           const ExecEnv& env) {
  gpusim::Device& dev = sup.device();
  const int seq = spec.m;
  const int d = spec.k;
  Rng rng(spec.data_seed);
  DenseMatrix<half_t> q_host(seq, d);
  q_host.fill_random_int(rng);
  DenseMatrix<half_t> k_host(seq, d);
  k_host.fill_random_int(rng);
  DenseMatrix<half_t> v_host(seq, d);
  v_host.fill_random_int(rng);
  Cvs mask_host = make_cvs_mask(seq, seq, spec.v, spec.sparsity, rng);

  DenseDevice<half_t> q = to_device(dev, q_host);
  DenseDevice<half_t> k = to_device(dev, k_host);
  DenseDevice<half_t> v = to_device(dev, v_host);
  CvsDevice mask = to_device(dev, mask_host);
  auto scratch = dev.alloc<half_t>(mask_host.values.size());
  DenseMatrix<half_t> out_host(seq, d);
  DenseDevice<half_t> out = to_device(dev, out_host);

  gpusim::FaultPlan plan(mix64(spec.data_seed ^ 0x570) | 1,
                         /*ecc_enabled=*/true);
  if (env.ecc_burst) {
    plan.set_rates({.dram_read = 1e-4});
    dev.set_fault_plan(&plan);
  }

  kernels::SddmmOptions qk_options;
  qk_options.algorithm = kernels::SddmmAlgorithm::kOctet;
  qk_options.sim.threads = env.threads;
  if (env.watchdog_cta_ops) {
    qk_options.sim.watchdog_cta_ops = env.watchdog_cta_ops;
  }

  DenseDevice<half_t> kt{k.buf, d, seq, k.ld, Layout::kColMajor};
  const ServeReport& qk_report =
      sup.submit_sddmm(q, kt, mask, scratch, qk_options);

  ExecOutcome out_res;
  out_res.rejected = qk_report.rejected;
  fold_report(out_res, qk_report);
  fold_failure(out_res, qk_report);
  if (!qk_report.completed) {
    if (env.ecc_burst) dev.set_fault_plan(nullptr);
    return out_res;  // completed stays false; AV is skipped
  }
  // The AV submit below appends to the supervisor's report vector,
  // which may reallocate and invalidate qk_report — copy the run the
  // verify pass needs while the reference is still live.
  const kernels::KernelRun qk_run = qk_report.run;

  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  const kernels::KernelRun softmax_run =
      kernels::sparse_softmax(dev, mask, scratch, scratch, scale);
  out_res.service += service_of_run(softmax_run);
  out_res.ctas += softmax_run.stats.ctas_launched;

  CvsDevice probs = mask;
  probs.values = scratch;
  kernels::SpmmOptions av_options;
  av_options.algorithm = kernels::SpmmAlgorithm::kOctet;
  av_options.sim.threads = env.threads;
  if (env.watchdog_cta_ops) {
    av_options.sim.watchdog_cta_ops = env.watchdog_cta_ops;
  }

  const ServeReport& av_report = sup.submit_spmm(probs, v, out, av_options);
  if (env.ecc_burst) dev.set_fault_plan(nullptr);

  out_res.completed = av_report.completed;
  out_res.rejected = out_res.rejected || av_report.rejected;
  fold_report(out_res, av_report);
  fold_failure(out_res, av_report);
  if (env.verify && out_res.completed) {
    gpusim::Device& ref_dev = *env.ref_dev;
    ref_dev.reset();
    DenseDevice<half_t> rq = to_device(ref_dev, q_host);
    DenseDevice<half_t> rk = to_device(ref_dev, k_host);
    DenseDevice<half_t> rv = to_device(ref_dev, v_host);
    CvsDevice rmask = to_device(ref_dev, mask_host);
    auto rscratch = ref_dev.alloc<half_t>(mask_host.values.size());
    DenseDevice<half_t> rout = to_device(ref_dev, out_host);
    DenseDevice<half_t> rkt{rk.buf, d, seq, rk.ld, Layout::kColMajor};
    const kernels::KernelRun ref_qk = kernels::sddmm(
        ref_dev, rq, rkt, rmask, rscratch,
        {.algorithm = kernels::SddmmAlgorithm::kOctet,
         .sim = {.threads = env.threads}});
    const kernels::KernelRun ref_softmax =
        kernels::sparse_softmax(ref_dev, rmask, rscratch, rscratch, scale);
    CvsDevice rprobs = rmask;
    rprobs.values = rscratch;
    const kernels::KernelRun ref_av =
        kernels::spmm(ref_dev, rprobs, rv, rout,
                      {.algorithm = kernels::SpmmAlgorithm::kOctet,
                       .sim = {.threads = env.threads}});
    out_res.bit_exact = same_bytes(out.buf.host(), rout.buf.host());
    if (counters_comparable(env, qk_run, ref_qk) &&
        counters_comparable(env, av_report.run, ref_av)) {
      out_res.counters_exact =
          qk_run.stats.sm_local_equal(ref_qk.stats) &&
          softmax_run.stats.sm_local_equal(ref_softmax.stats) &&
          av_report.run.stats.sm_local_equal(ref_av.stats);
    }
  }
  return out_res;
}

}  // namespace

const char* request_op_name(RequestOp op) {
  switch (op) {
    case RequestOp::kSpmm:
      return "spmm";
    case RequestOp::kSddmm:
      return "sddmm";
    case RequestOp::kAttention:
      return "attention";
  }
  return "spmm";
}

ExecOutcome execute_request(Supervisor& sup, const RequestSpec& spec,
                            const ExecEnv& env) {
  switch (spec.op) {
    case RequestOp::kSpmm:
      return exec_spmm(sup, spec, env);
    case RequestOp::kSddmm:
      return exec_sddmm(sup, spec, env);
    case RequestOp::kAttention:
      return exec_attention(sup, spec, env);
  }
  return {};
}

// ---- the fleet --------------------------------------------------------

const char* worker_state_name(WorkerState state) {
  switch (state) {
    case WorkerState::kActive:
      return "active";
    case WorkerState::kDraining:
      return "draining";
    case WorkerState::kDead:
      return "dead";
  }
  return "active";
}

Fleet::Worker::Worker(int id_in, const gpusim::DeviceConfig& hw,
                      const ServePolicy& policy,
                      const HealthConfig& health_config)
    : id(id_in), dev(hw), health(health_config), sup(dev, policy) {
  sup.mutable_policy().kernel_gate = &HealthTracker::gate;
  sup.mutable_policy().kernel_gate_ctx = &health;
}

Fleet::Fleet(const FleetConfig& config, const gpusim::DeviceConfig& hw,
             const ServePolicy& base_policy, const HealthConfig& health_config,
             const DeviceChaosPlan* storms)
    : config_(config), storms_(storms) {
  workers_.reserve(static_cast<std::size_t>(config_.devices));
  for (int d = 0; d < config_.devices; ++d) {
    workers_.push_back(
        std::make_unique<Worker>(d, hw, base_policy, health_config));
    workers_.back()->sup.set_request_id_source(&next_request_id_);
  }
}

void Fleet::observe(std::uint64_t now, PlacementStats& stats) {
  if (storms_ == nullptr) return;
  for (auto& wp : workers_) {
    Worker& w = *wp;
    if (w.state == WorkerState::kDead) continue;
    if (storms_->at(w.id, now).dead) mark_dead(w, now, &stats);
  }
}

bool Fleet::op_drained(const Worker& w, std::uint64_t t) const {
  for (const DrainWindow& d : config_.drains) {
    if (d.device == w.id && d.covers(t)) return true;
  }
  return false;
}

bool Fleet::available(const Worker& w, std::uint64_t t) const {
  if (w.state == WorkerState::kDead) return false;
  if (op_drained(w, t)) return false;
  return w.state == WorkerState::kActive || t >= w.probe_at;
}

int Fleet::pick_free(std::uint64_t now) const {
  int best = -1;
  std::uint64_t best_bu = 0;
  bool any_available = false;
  for (const auto& wp : workers_) {
    const Worker& w = *wp;
    if (!available(w, now)) continue;
    any_available = true;
    if (w.busy_until <= now && (best < 0 || w.busy_until < best_bu)) {
      best = w.id;
      best_bu = w.busy_until;
    }
  }
  if (any_available) return best;
  // Fail-static: every survivor is draining/drained — serve on the
  // non-dead set rather than deadlock.
  for (const auto& wp : workers_) {
    const Worker& w = *wp;
    if (w.state == WorkerState::kDead) continue;
    if (w.busy_until <= now && (best < 0 || w.busy_until < best_bu)) {
      best = w.id;
      best_bu = w.busy_until;
    }
  }
  return best;
}

int Fleet::pick_failover(std::uint64_t now,
                         const std::vector<char>& exclude) const {
  int best = -1;
  std::uint64_t best_start = 0;
  bool any_available = false;
  for (const auto& wp : workers_) {
    const Worker& w = *wp;
    if (exclude[static_cast<std::size_t>(w.id)]) continue;
    const std::uint64_t start = std::max(now, w.busy_until);
    if (!available(w, start)) continue;
    any_available = true;
    if (best < 0 || start < best_start) {
      best = w.id;
      best_start = start;
    }
  }
  if (any_available) return best;
  for (const auto& wp : workers_) {
    const Worker& w = *wp;
    if (exclude[static_cast<std::size_t>(w.id)]) continue;
    if (w.state == WorkerState::kDead) continue;
    const std::uint64_t start = std::max(now, w.busy_until);
    if (best < 0 || start < best_start) {
      best = w.id;
      best_start = start;
    }
  }
  return best;
}

std::uint64_t Fleet::next_event_tick(std::uint64_t now) const {
  bool any_available = false;
  for (const auto& wp : workers_) {
    if (available(*wp, now)) {
      any_available = true;
      break;
    }
  }
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const auto& wp : workers_) {
    const Worker& w = *wp;
    if (w.state == WorkerState::kDead) continue;
    std::uint64_t candidate;
    if (!any_available) {
      // Fail-static regime: the non-dead set serves as soon as a
      // worker frees up.
      candidate = std::max(w.busy_until, now + 1);
    } else if (available(w, now)) {
      candidate = std::max(w.busy_until, now + 1);
    } else {
      // When does this worker become available?  The end of the
      // covering operator-drain window and/or its probe tick.
      std::uint64_t avail_t = now + 1;
      for (const DrainWindow& d : config_.drains) {
        if (d.device == w.id && d.covers(now)) {
          avail_t = std::max(avail_t, d.end);
        }
      }
      if (w.state == WorkerState::kDraining && now < w.probe_at) {
        avail_t = std::max(avail_t, w.probe_at);
      }
      candidate = std::max(avail_t, w.busy_until);
    }
    best = std::min(best, std::max(candidate, now + 1));
  }
  return best == std::numeric_limits<std::uint64_t>::max() ? now : best;
}

bool Fleet::placement_migrated(int chosen, std::uint64_t t) const {
  for (const auto& wp : workers_) {
    const Worker& w = *wp;
    if (w.id == chosen || w.state == WorkerState::kDead) continue;
    if (w.busy_until <= t && !available(w, t)) return true;
  }
  return false;
}

bool Fleet::note_placement(Worker& w, std::uint64_t start,
                           PlacementStats& stats) {
  ++stats.placements;
  ++w.placements;
  if (w.state == WorkerState::kDraining && start >= w.probe_at) {
    ++w.probes;
    ++stats.probes;
    emit(start, w.id, "probe");
    return true;
  }
  return false;
}

DeviceFaultActive Fleet::arm_device(Worker& w, std::uint64_t tick) {
  const DeviceFaultActive fault =
      storms_ != nullptr ? storms_->at(w.id, tick) : DeviceFaultActive{};
  if (fault.dead) {
    w.dev.set_device_fault(gpusim::DeviceFault::kDead);
  } else if (fault.wedged) {
    w.dev.set_device_fault(gpusim::DeviceFault::kWedged);
  } else {
    w.dev.set_device_fault(gpusim::DeviceFault::kNone);
  }
  return fault;
}

void Fleet::disarm_device(Worker& w) {
  w.dev.set_device_fault(gpusim::DeviceFault::kNone);
}

void Fleet::mark_dead(Worker& w, std::uint64_t tick, PlacementStats* stats) {
  if (w.state == WorkerState::kDead) return;
  w.state = WorkerState::kDead;
  if (stats != nullptr) ++stats->devices_lost;
  emit(tick, w.id, "dead");
}

void Fleet::note_outcome(Worker& w, const ExecOutcome& out,
                         std::uint64_t end_tick, bool was_probe,
                         PlacementStats& stats) {
  if (out.rejected) return;  // nothing launched — no device-level signal
  if (!out.completed && out.final_code == ErrorCode::kDeviceLost) {
    ++w.failures;
    mark_dead(w, end_tick, &stats);
    return;
  }
  if (out.device_failure()) {
    ++w.failures;
    ++w.device_failures;
    if (w.state == WorkerState::kDraining) {
      // A probe (or fail-static placement) hit the device fault again:
      // re-drain with the cooldown doubled, saturating.
      const int doublings =
          std::min(++w.drain_reopens, config_.max_drain_doublings);
      w.probe_at = end_tick + (config_.drain_cooldown_ticks << doublings);
      ++stats.drain_reopens;
      emit(end_tick, w.id, "drain_reopen");
    } else if (w.device_failures >= config_.drain_failure_threshold) {
      w.state = WorkerState::kDraining;
      w.probe_at = end_tick + config_.drain_cooldown_ticks;
      ++stats.drains;
      emit(end_tick, w.id, "drain");
    }
    return;
  }
  // The device itself answered launches: completed, or a per-kernel
  // failure the kernel breakers own.
  w.device_failures = 0;
  if (out.completed) {
    ++w.completions;
  } else {
    ++w.failures;
  }
  if (w.state == WorkerState::kDraining && was_probe) {
    w.state = WorkerState::kActive;
    w.drain_reopens = 0;
    w.probe_at = 0;
    ++stats.restores;
    emit(end_tick, w.id, "restore");
  }
}

void Fleet::emit(std::uint64_t tick, int device, const char* kind) {
  events_.push_back(FleetEvent{tick, device, kind});
}

std::string Fleet::events_json() const {
  // Events are emitted in processing order; present them in simulated-
  // tick order (stable, so same-tick events keep their causal order).
  std::vector<const FleetEvent*> sorted;
  sorted.reserve(events_.size());
  for (const FleetEvent& e : events_) sorted.push_back(&e);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FleetEvent* a, const FleetEvent* b) {
                     return a->tick < b->tick;
                   });
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) os << ",";
    os << "{\"tick\":" << sorted[i]->tick << ",\"device\":" << sorted[i]->device
       << ",\"kind\":\"" << sorted[i]->kind << "\"}";
  }
  os << "]";
  return os.str();
}

std::string Fleet::workers_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    const HealthTracker::Totals& h = w.health.totals();
    if (i) os << ",";
    os << "{\"device\":" << w.id << ",\"state\":\""
       << worker_state_name(w.state) << "\",\"placements\":" << w.placements
       << ",\"completions\":" << w.completions << ",\"failures\":" << w.failures
       << ",\"probes\":" << w.probes << ",\"busy_until\":" << w.busy_until
       << ",\"health\":{\"quarantines\":" << h.quarantines
       << ",\"half_opens\":" << h.half_opens << ",\"restores\":" << h.restores
       << ",\"reopens\":" << h.reopens << "}}";
  }
  os << "]";
  return os.str();
}

HealthTracker::Totals Fleet::merged_health_totals() const {
  HealthTracker::Totals sum;
  for (const auto& wp : workers_) {
    const HealthTracker::Totals& t = wp->health.totals();
    sum.quarantines += t.quarantines;
    sum.half_opens += t.half_opens;
    sum.restores += t.restores;
    sum.reopens += t.reopens;
  }
  return sum;
}

std::string Fleet::merged_health_events_json() const {
  // Each worker's stream is tick-sorted (the scheduler's decision clock
  // is monotonic); k-way merge on (tick, worker id, stream order).  The
  // element format matches HealthTracker::events_json exactly, so a
  // fleet of one serializes byte-identically to its single tracker.
  struct Tagged {
    const HealthEvent* e;
    int worker;
    std::size_t index;
  };
  std::vector<Tagged> merged;
  for (const auto& wp : workers_) {
    const auto& events = wp->health.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
      merged.push_back(Tagged{&events[i], wp->id, i});
    }
  }
  std::sort(merged.begin(), merged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.e->tick != b.e->tick) return a.e->tick < b.e->tick;
    if (a.worker != b.worker) return a.worker < b.worker;
    return a.index < b.index;
  });
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const HealthEvent& e = *merged[i].e;
    if (i) os << ",";
    os << "{\"kind\":\"" << health_event_kind_name(e.kind)
       << "\",\"tick\":" << e.tick << ",\"kernel\":\"" << e.kernel
       << "\",\"failures\":" << e.failures << ",\"attempts\":" << e.attempts
       << "}";
  }
  os << "]";
  return os.str();
}

std::vector<ServeReport> Fleet::merged_reports() const {
  std::vector<ServeReport> merged;
  std::size_t total = 0;
  for (const auto& wp : workers_) total += wp->sup.reports().size();
  merged.reserve(total);
  for (const auto& wp : workers_) {
    const auto& reports = wp->sup.reports();
    merged.insert(merged.end(), reports.begin(), reports.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const ServeReport& a, const ServeReport& b) {
              return a.request_id < b.request_id;
            });
  return merged;
}

}  // namespace vsparse::serve
