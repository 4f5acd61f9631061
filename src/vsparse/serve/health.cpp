#include "vsparse/serve/health.hpp"

#include <algorithm>
#include <sstream>

namespace vsparse::serve {

const char* health_event_kind_name(HealthEvent::Kind kind) {
  switch (kind) {
    case HealthEvent::Kind::kQuarantine:
      return "quarantine";
    case HealthEvent::Kind::kHalfOpen:
      return "half_open";
    case HealthEvent::Kind::kRestore:
      return "restore";
    case HealthEvent::Kind::kReopen:
      return "reopen";
  }
  return "quarantine";
}

HealthTracker::HealthTracker(HealthConfig config) : config_(config) {
  config_.window = std::clamp(config_.window, 1, 64);
  config_.min_attempts = std::clamp(config_.min_attempts, 1, config_.window);
  config_.failure_percent = std::clamp(config_.failure_percent, 1, 100);
  config_.probe_successes = std::max(config_.probe_successes, 1);
  config_.max_cooldown_doublings =
      std::clamp(config_.max_cooldown_doublings, 0, 20);
}

void HealthTracker::advance(std::uint64_t tick) {
  for (auto& [kernel, c] : circuits_) {
    if (c.state == BreakerState::kOpen && tick >= c.cooldown_until) {
      c.state = BreakerState::kHalfOpen;
      c.probe_ok = 0;
      ++totals_.half_opens;
      emit(HealthEvent::Kind::kHalfOpen, tick, kernel, c);
    }
  }
}

bool HealthTracker::allowed(const std::string& kernel) const {
  const auto it = circuits_.find(kernel);
  return it == circuits_.end() || it->second.state != BreakerState::kOpen;
}

bool HealthTracker::gate(void* ctx, const char* kernel, bool abft) {
  const auto* tracker = static_cast<const HealthTracker*>(ctx);
  std::string key = kernel;
  if (abft) key += "+abft";
  return tracker->allowed(key);
}

void HealthTracker::push_outcome(Circuit& c, bool ok) {
  const std::uint64_t evict_mask = std::uint64_t{1}
                                   << (config_.window - 1);
  if (c.window_size == config_.window) {
    if (c.window_bits & evict_mask) --c.failures;
  } else {
    ++c.window_size;
  }
  // For window == 64 `evict_mask << 1` wraps to 0 and the mask becomes
  // all-ones — exactly right, the shift itself evicts bit 63.
  c.window_bits = (c.window_bits << 1) & ((evict_mask << 1) - 1);
  if (!ok) {
    c.window_bits |= 1;
    ++c.failures;
  }
}

void HealthTracker::emit(HealthEvent::Kind kind, std::uint64_t tick,
                         const std::string& kernel, const Circuit& c) {
  events_.push_back(HealthEvent{kind, tick, kernel, c.failures, c.window_size});
}

void HealthTracker::record(const std::string& kernel, bool ok,
                           std::uint64_t tick) {
  Circuit& c = circuits_[kernel];
  switch (c.state) {
    case BreakerState::kClosed: {
      push_outcome(c, ok);
      if (c.window_size >= config_.min_attempts &&
          c.failures * 100 >= config_.failure_percent * c.window_size) {
        c.state = BreakerState::kOpen;
        c.cooldown_until = tick + config_.cooldown_ticks;
        ++totals_.quarantines;
        emit(HealthEvent::Kind::kQuarantine, tick, kernel, c);
      }
      break;
    }
    case BreakerState::kHalfOpen: {
      push_outcome(c, ok);
      if (ok) {
        if (++c.probe_ok >= config_.probe_successes) {
          c.state = BreakerState::kClosed;
          c.window_bits = 0;
          c.window_size = 0;
          c.failures = 0;
          c.reopenings = 0;
          ++totals_.restores;
          emit(HealthEvent::Kind::kRestore, tick, kernel, c);
        }
      } else {
        c.state = BreakerState::kOpen;
        const int doublings =
            std::min(++c.reopenings, config_.max_cooldown_doublings);
        c.cooldown_until = tick + (config_.cooldown_ticks << doublings);
        ++totals_.reopens;
        emit(HealthEvent::Kind::kReopen, tick, kernel, c);
      }
      break;
    }
    case BreakerState::kOpen:
      // A launch still reached an Open kernel — the fail-static path
      // when every rung is quarantined.  The outcome carries no new
      // signal (the breaker already tripped) and the cooldown clock is
      // tick-driven, so it is deliberately not recorded.
      break;
  }
}

BreakerState HealthTracker::state(const std::string& kernel) const {
  const auto it = circuits_.find(kernel);
  return it == circuits_.end() ? BreakerState::kClosed : it->second.state;
}

std::vector<std::string> HealthTracker::open_kernels() const {
  std::vector<std::string> open;
  for (const auto& [kernel, c] : circuits_) {
    if (c.state == BreakerState::kOpen) open.push_back(kernel);
  }
  return open;
}

std::string HealthTracker::events_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const HealthEvent& e = events_[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << health_event_kind_name(e.kind)
       << "\",\"tick\":" << e.tick << ",\"kernel\":\"" << e.kernel
       << "\",\"failures\":" << e.failures << ",\"attempts\":" << e.attempts
       << "}";
  }
  os << "]";
  return os.str();
}

std::string health_key(const std::string& op, ServeRung rung) {
  const bool spmm = op == "spmm";
  switch (rung) {
    case ServeRung::kOctet:
      return spmm ? "spmm_octet" : "sddmm_octet";
    case ServeRung::kOctetAbft:
      return spmm ? "spmm_octet+abft" : "sddmm_octet+abft";
    case ServeRung::kBlockedEll:
      return "spmm_blocked_ell";
    case ServeRung::kDenseGemm:
      return "spmm_dense_gemm";
    case ServeRung::kFpuSubwarp:
      return spmm ? "spmm_fpu_subwarp" : "sddmm_fpu_subwarp";
    case ServeRung::kCsrFine:
      return spmm ? "spmm_csr_fine" : "sddmm_csr_fine";
    case ServeRung::kWmmaWarp:
      return "sddmm_wmma_warp";
    case ServeRung::kNumRungs:
      break;
  }
  return op + "_unknown";
}

}  // namespace vsparse::serve
