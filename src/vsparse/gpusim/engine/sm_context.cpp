#include "vsparse/gpusim/engine/sm_context.hpp"

#include <bit>
#include <cstring>
#include <sstream>

#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {

L2Log::L2Log(const DeviceConfig& cfg)
    : line_shift_(std::countr_zero(static_cast<unsigned>(cfg.line_bytes))),
      index_shift_(1 + cfg.line_bytes / cfg.sector_bytes),
      line_mask_(static_cast<std::uint64_t>(cfg.line_bytes) - 1) {}

void L2Log::check_fits(const DeviceConfig& cfg) {
  const std::uint64_t line = static_cast<std::uint64_t>(cfg.line_bytes);
  const std::uint64_t lines = (cfg.dram_capacity + line - 1) / line;
  const int index_bits = 32 - (1 + cfg.line_bytes / cfg.sector_bytes);
  VSPARSE_CHECK_MSG(
      index_bits > 0 && lines <= (std::uint64_t{1} << index_bits),
      "a " << cfg.dram_capacity << " B arena of " << cfg.line_bytes
           << " B lines does not fit the 32-bit L2 log entry");
}

void L2Log::replay(std::size_t slot, SectorCache& l2,
                   KernelStats& stats) const {
  VSPARSE_DCHECK(slot < cta_begin_.size());
  const std::size_t end =
      slot + 1 < cta_begin_.size() ? cta_begin_[slot + 1] : entries_.size();
  const std::uint32_t mask = (1u << (index_shift_ - 1)) - 1;
  for (std::size_t i = cta_begin_[slot]; i < end; ++i) {
    const std::uint32_t e = entries_[i];
    const std::uint32_t sectors = (e >> 1) & mask;
    const std::uint64_t line_base =
        static_cast<std::uint64_t>(e >> index_shift_) << line_shift_;
    const int hits = std::popcount(l2.access_line(line_base, sectors));
    const int misses = std::popcount(sectors) - hits;
    stats.l2_sector_hits += static_cast<std::uint64_t>(hits);
    stats.l2_sector_misses += static_cast<std::uint64_t>(misses);
    (e & 1u ? stats.dram_write_bytes : stats.dram_read_bytes) +=
        32u * static_cast<std::uint64_t>(misses);
  }
}

SmContext::SmContext(Device* dev, int sm_id)
    : dev_(dev),
      sm_id_(sm_id),
      l1_(dev->config().l1_bytes, dev->config().line_bytes,
          dev->config().sector_bytes, dev->config().l1_ways),
      l2_log_(dev->config()) {
  faults_.plan = dev->fault_plan();
  faults_.sm_id = sm_id;
}

void SmContext::throw_watchdog() const {
  if (trace_ != nullptr) {
    trace_->emit(TraceEventKind::kWatchdog, /*cta=*/-1, /*warp=*/-1,
                 watchdog_limit_, watchdog_ops_);
  }
  std::ostringstream os;
  os << "LaunchTimeoutError: CTA on sm " << sm_id_ << " exceeded the op budget"
     << " (" << watchdog_ops_ << " ops issued, limit " << watchdog_limit_
     << ") — malformed input driving an unbounded kernel loop?";
  throw LaunchTimeoutError(os.str());
}

std::byte* SmContext::prepare_smem(std::size_t bytes) {
  if (smem_.size() < bytes) smem_.resize(bytes);
  if (bytes != 0) std::memset(smem_.data(), 0, bytes);
  return smem_.data();
}

}  // namespace vsparse::gpusim
