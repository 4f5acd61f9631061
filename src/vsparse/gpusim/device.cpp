#include "vsparse/gpusim/device.hpp"

#include <algorithm>
#include <sstream>

#include "vsparse/gpusim/engine/sm_context.hpp"
#include "vsparse/gpusim/faults.hpp"

namespace vsparse::gpusim {

Device::Device(DeviceConfig cfg)
    : cfg_(cfg),
      l2_(cfg.l2_bytes, cfg.line_bytes, cfg.sector_bytes, cfg.l2_ways) {
  // The warp ops' sector arithmetic (coalescing, the span walks' line
  // masks, DRAM bytes per miss) is written for 32 B sectors; any other
  // size would count the per-lane and span paths differently.
  VSPARSE_CHECK_MSG(cfg_.sector_bytes == 32,
                    "sector_bytes=" << cfg_.sector_bytes
                                    << " is not modelled; the warp ops "
                                       "count 32 B sectors");
  L2Log::check_fits(cfg_);
  capacity_ = cfg_.dram_capacity;
  // for_overwrite: the arena must not be value-initialized — it can be
  // gigabytes, and alloc_bytes() zeroes each allocation on demand.
  arena_ = std::make_unique_for_overwrite<std::byte[]>(capacity_);
}

std::uint64_t Device::alloc_bytes(std::size_t bytes, const char* name,
                                  std::size_t slack_bytes) {
  std::size_t aligned;
  {
    std::lock_guard<std::mutex> lock(alloc_mutex_);
    const std::size_t used = used_.load(std::memory_order_relaxed);
    aligned = round_up<std::size_t>(used, 256);
    // A zero-byte allocation still claims its 256 B granule, so the
    // next allocation gets a base — and an allocation record — of its
    // own.  Every nonzero size advances the bump pointer exactly as
    // before.
    const std::size_t claimed = std::max<std::size_t>(bytes, 1);
    // Checked as two comparisons so `aligned + claimed` cannot wrap for
    // huge requests (mirrors the Device::translate guard).
    VSPARSE_CHECK_RAISE(claimed <= capacity_ && aligned <= capacity_ - claimed,
                        ErrorCode::kOutOfMemory, "gpusim.alloc",
                        "simulated DRAM exhausted: want "
                            << bytes << "B, used " << used << "B of "
                            << capacity_ << "B — call Device::reset() between "
                            << "independent experiments");
    // The vector-load slack (see Device::alloc) deliberately does NOT
    // advance the bump pointer or the accounting: it only widens what
    // the sanitizer's boundscheck accepts, so declaring slack can never
    // perturb the memory layout a calibrated run depends on.
    used_.store(aligned + claimed, std::memory_order_relaxed);
    allocations_.emplace(aligned, AllocInfo{bytes, slack_bytes, true, name});
    const std::size_t live = live_.load(std::memory_order_relaxed) + bytes;
    live_.store(live, std::memory_order_relaxed);
    if (live > peak_.load(std::memory_order_relaxed)) {
      peak_.store(live, std::memory_order_relaxed);
    }
  }
  // Zero outside the lock: the region is already reserved, so it is
  // private to this allocation and the memset can be arbitrarily large.
  // The slack tail up to the next 256 B boundary is zeroed too (that
  // span can never belong to another allocation); slack beyond it
  // overlaps the neighbouring allocation and keeps its bytes.
  std::size_t zero_bytes = bytes;
  if (slack_bytes > 0) {
    const std::size_t block_end =
        std::min<std::size_t>(round_up<std::size_t>(aligned + bytes, 256),
                              capacity_);
    zero_bytes = std::min(aligned + bytes + slack_bytes, block_end) - aligned;
  }
  std::memset(arena_.get() + aligned, 0, zero_bytes);
  return aligned;
}

void Device::free_bytes(std::uint64_t addr) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  auto it = allocations_.find(addr);
  VSPARSE_CHECK_MSG(it != allocations_.end() && it->second.live,
                    "free of unknown device address " << addr);
  live_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  // Keep the dead record: the bump arena never reuses addresses, so the
  // sanitizer (and translate errors) can distinguish "use after free"
  // from "never allocated".  Device::reset drops everything.
  it->second.live = false;
}

std::vector<AllocRecord> Device::allocation_snapshot() const {
  std::vector<AllocRecord> snapshot;
  {
    std::lock_guard<std::mutex> lock(alloc_mutex_);
    snapshot.reserve(allocations_.size());
    for (const auto& [addr, info] : allocations_) {
      snapshot.push_back(
          AllocRecord{addr, info.bytes, info.slack, info.live, info.name});
    }
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const AllocRecord& a, const AllocRecord& b) {
              return a.addr < b.addr;
            });
  return snapshot;
}

std::string Device::describe_addr(std::uint64_t addr) const {
  // Nearest allocation at or below `addr` (the bump allocator hands out
  // strictly increasing, non-overlapping ranges).
  std::uint64_t best_addr = 0;
  AllocInfo best;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(alloc_mutex_);
    for (const auto& [base, info] : allocations_) {
      if (base <= addr && (!found || base > best_addr)) {
        best_addr = base;
        best = info;
        found = true;
      }
    }
  }
  std::ostringstream os;
  if (!found) {
    os << "no allocation at or below address " << addr;
    return os.str();
  }
  os << (best.live ? "allocation" : "freed allocation") << " '"
     << (best.name.empty() ? "(unnamed)" : best.name.c_str()) << "' ["
     << best_addr << ", " << best_addr + best.bytes << ')';
  if (addr >= best_addr + best.bytes) {
    os << " ends " << addr - (best_addr + best.bytes - 1)
       << "B before this address";
  } else {
    os << " (+ offset " << addr - best_addr << ')';
  }
  return os.str();
}

void Device::translate_fail(std::uint64_t addr, std::size_t len,
                            std::size_t used) const {
  std::ostringstream os;
  os << "device OOB access: addr=" << addr << " len=" << len
     << " used=" << used << "; nearest: " << describe_addr(addr);
  ::vsparse::detail::check_failed("len <= used && addr <= used - len",
                                  __FILE__, __LINE__, os.str());
}

void Device::reset() {
  {
    std::lock_guard<std::mutex> lock(alloc_mutex_);
    used_.store(0, std::memory_order_relaxed);
    live_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    allocations_.clear();
  }
  flush_all_caches();
}

void Device::flush_all_caches() {
  // L1s live in per-launch SmContexts and are born cold; the only
  // persistent cache a Device owns is the L2.
  std::lock_guard<std::mutex> lock(l2_mutex_);
  l2_.flush();
}

void Device::set_fault_plan(FaultPlan* plan) {
  if (plan != nullptr) plan->prepare(cfg_.num_sms);
  fault_plan_ = plan;
}

}  // namespace vsparse::gpusim
