// Simulated device: DRAM arena, typed buffers, the shared L2, and
// peak-memory accounting (the Table 4 "Peak Memory" column is the
// high-water mark of live allocations on this device).
//
// Per-SM state (L1, shared-memory arena, counter block) lives in the
// execution engine's SmContext (engine/sm_context.hpp), created fresh
// for every launch — which is exactly the kernel-boundary L1
// invalidation semantics real GPUs have.  The Device holds only the
// state that is shared across SMs and persists across launches.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/common/math.hpp"
#include "vsparse/gpusim/cache.hpp"
#include "vsparse/gpusim/config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::gpusim {

class Device;
class FaultPlan;

/// Device-level fault domain — the whole-device failure modes the
/// serving fleet's chaos layer arms (contrast FaultPlan, which strikes
/// individual loads/MMAs inside an otherwise healthy launch):
///
///   kWedged  every launch times out before scheduling a single CTA
///            (vsparse::Error{kLaunchTimeout, "gpusim.device.wedged"})
///   kDead    the device is lost permanently
///            (vsparse::Error{kDeviceLost, "gpusim.device.lost"})
///
/// kNone is the default and the only state a fault-free run can
/// observe, so the check on the launch path costs one predictable
/// branch and the bit/counter-identity contract is untouched.
enum class DeviceFault : std::uint8_t { kNone = 0, kWedged, kDead };

/// One allocation as seen by diagnostics: the sanitizer's boundscheck
/// snapshots the allocation table at launch start (sorted by address)
/// and `Device::translate` names the nearest allocation in its OOB
/// error.  `live == false` means logically freed — the bump arena never
/// reuses addresses, so dead records persist until Device::reset and a
/// touch inside one is a use-after-free, not a wild pointer.
struct AllocRecord {
  std::uint64_t addr = 0;
  std::size_t bytes = 0;
  /// Sputnik-style vector-load tail: bytes past `bytes` the boundscheck
  /// accepts as in-bounds for loads — never for stores (see
  /// Device::alloc).  Zero by default.
  std::size_t slack = 0;
  bool live = true;
  std::string name;  ///< caller-provided label; empty = unnamed
};

/// Handle to a typed allocation in simulated device memory.  Copyable
/// view (does not own); lifetime is managed by the Device (free/reset).
template <class T>
class Buffer {
 public:
  Buffer() = default;
  Buffer(Device* dev, std::uint64_t addr, std::size_t count)
      : dev_(dev), addr_(addr), count_(count) {}

  /// Device byte address of element `i` — what kernels feed to ldg/stg.
  std::uint64_t addr(std::size_t i = 0) const {
    VSPARSE_DCHECK(i <= count_);
    return addr_ + i * sizeof(T);
  }
  std::size_t size() const { return count_; }
  std::size_t bytes() const { return count_ * sizeof(T); }
  bool empty() const { return count_ == 0; }

  /// Host-side view for initialization / result readback (the simulated
  /// DRAM is host memory, so "cudaMemcpy" is a plain span).
  std::span<T> host();
  std::span<const T> host() const;

 private:
  Device* dev_ = nullptr;
  std::uint64_t addr_ = 0;
  std::size_t count_ = 0;
};

/// The simulated GPU.  Owns DRAM and the L2; per-SM L1s belong to the
/// engine's per-launch SmContexts.  Execution itself lives in the
/// engine (`launch()` in gpusim/engine/), which drives warps against
/// this device — possibly from several host threads, so everything a
/// warp op reaches from here is read-only (config, arena translation).
/// The L2 is touched only by the launch's replay of the SMs' L2 logs,
/// under l2_mutex().
class Device {
 public:
  explicit Device(DeviceConfig cfg = DeviceConfig::volta_v100());

  /// Movable so factory helpers can return by value.  The mutex and
  /// atomic accounting members require a hand-written move; moving a
  /// Device that other threads are concurrently using is (as always)
  /// undefined, so the source's mutex is not taken.
  Device(Device&& other) noexcept
      : cfg_(std::move(other.cfg_)),
        arena_(std::move(other.arena_)),
        capacity_(other.capacity_),
        used_(other.used_.load(std::memory_order_relaxed)),
        live_(other.live_.load(std::memory_order_relaxed)),
        peak_(other.peak_.load(std::memory_order_relaxed)),
        allocations_(std::move(other.allocations_)),
        l2_(std::move(other.l2_)),
        sim_options_(other.sim_options_),
        fault_plan_(other.fault_plan_),
        device_fault_(other.device_fault_) {}
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  Device& operator=(Device&&) = delete;

  const DeviceConfig& config() const { return cfg_; }

  /// Allocate `count` elements of T, 256-byte aligned (so 128 B
  /// transaction alignment analysis is meaningful).  Contents zeroed.
  /// Every allocation, even a zero-byte one, gets its own base address
  /// and its own record.
  /// `name` labels the allocation in diagnostics (translate OOB errors,
  /// sanitizer boundscheck reports); empty = unnamed.
  /// Raises vsparse::Error{kAllocOverflow} on size-arithmetic wrap and
  /// vsparse::Error{kOutOfMemory} when the arena is exhausted.
  /// `tail_slack_bytes` declares a Sputnik-style vector-load tail: a
  /// kernel whose widest aligned vector load may overhang the final
  /// element (LDG.64 index pairs, 16 B-aligned LDG.128 value streams)
  /// needs those bytes readable, and real Sputnik requires its input
  /// arrays padded accordingly.  The slack is *not* arena padding — the
  /// bump pointer advances exactly as for a slack-free allocation, so
  /// the memory layout (and with it every address-sensitive cache
  /// statistic) is unchanged; the tail lives in the 256 B alignment gap
  /// the allocator leaves anyway, and the sanitizer's boundscheck
  /// accepts loads into it instead of reporting a red-zone hit (a store
  /// there is still out of bounds).  Overhang loads
  /// return zeros or the neighbouring allocation's bytes; kernels must
  /// never consume them (they exist to keep the *access* legal).
  template <class T>
  Buffer<T> alloc(std::size_t count, const char* name = "",
                  std::size_t tail_slack_bytes = 0) {
    VSPARSE_CHECK_RAISE(count <= SIZE_MAX / sizeof(T),
                        ErrorCode::kAllocOverflow, "gpusim.alloc",
                        "device alloc overflows size_t: count="
                            << count << " elem_size=" << sizeof(T));
    const std::uint64_t addr =
        alloc_bytes(count * sizeof(T), name, tail_slack_bytes);
    return Buffer<T>(this, addr, count);
  }

  /// Allocate and fill from host data.  `tail_slack_elems` elements of
  /// vector-load slack are declared past the logical end (see alloc).
  template <class T>
  Buffer<T> alloc_copy(std::span<const T> src, const char* name = "",
                       std::size_t tail_slack_elems = 0) {
    Buffer<T> buf =
        alloc<T>(src.size(), name, tail_slack_elems * sizeof(T));
    if (!src.empty()) {
      std::memcpy(translate(buf.addr(), src.size() * sizeof(T)), src.data(),
                  src.size() * sizeof(T));
    }
    return buf;
  }

  /// Logically release an allocation (for peak-memory accounting).  The
  /// arena itself is bump-allocated and reclaimed only by reset().
  template <class T>
  void free(const Buffer<T>& buf) {
    free_bytes(buf.addr());
  }

  /// Drop all allocations and flush caches.
  void reset();

  /// Currently-live allocated bytes.
  std::size_t live_bytes() const {
    return live_.load(std::memory_order_relaxed);
  }
  /// High-water mark of live bytes since construction / reset().
  std::size_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

  /// Total arena size and bump-pointer position — what a serving-layer
  /// reservation check compares a request's footprint against before
  /// launching anything.
  std::size_t capacity_bytes() const { return capacity_; }
  std::size_t used_bytes() const {
    return used_.load(std::memory_order_relaxed);
  }

  /// Bounds-checked translation of a device address range to host memory.
  /// Guarded against `addr + len` wrapping around std::uint64_t: the
  /// length is checked against the arena first, then the address
  /// against the remaining room, so no sum can overflow.
  std::byte* translate(std::uint64_t addr, std::size_t len) {
    // Relaxed: concurrent allocators can only grow `used_`, and a
    // translation of an address another thread is still allocating
    // requires external synchronization anyway.
    const std::size_t used = used_.load(std::memory_order_relaxed);
    if (len > used || addr > used - len) [[unlikely]] {
      translate_fail(addr, len, used);
    }
    return arena_.get() + addr;
  }
  const std::byte* translate(std::uint64_t addr, std::size_t len) const {
    return const_cast<Device*>(this)->translate(addr, len);
  }

  /// The device-wide L2.  Hold l2_mutex() while touching it: several
  /// host threads may launch on one Device, and each launch replays its
  /// SMs' L2 logs into it after every epoch (engine/launch.hpp).
  SectorCache& l2() { return l2_; }
  std::mutex& l2_mutex() { return l2_mutex_; }

  /// Flush every cache level.  L1s are per-launch (engine SmContexts),
  /// so "all caches" a Device can flush between launches is the L2;
  /// benches call this to make back-to-back kernel runs cache-cold.
  void flush_all_caches();

  /// Default execution options used by `launch()` when the caller does
  /// not pass explicit SimOptions (or passes threads == 0 meaning
  /// "inherit").  Lets a driver opt a whole device into multi-threaded
  /// simulation without plumbing options through every kernel call.
  const SimOptions& sim_options() const { return sim_options_; }
  void set_sim_options(const SimOptions& opts) { sim_options_ = opts; }

  /// Snapshot of the allocation table, sorted by address, dead records
  /// included.  Taken once per sanitized launch (engine `launch`)
  /// so the per-lane boundscheck walks an immutable local array instead
  /// of taking `alloc_mutex_` on the hot path.
  std::vector<AllocRecord> allocation_snapshot() const;

  /// "allocation 'a_values' [256, 4352) (+ offset 12)" for the nearest
  /// allocation at or below `addr`, or a note that none exists.  Cold
  /// path (takes alloc_mutex_); used by translate errors and sanitizer
  /// report details.
  std::string describe_addr(std::uint64_t addr) const;

  /// Attach (or detach, with nullptr) a fault-injection plan.  The plan
  /// must outlive the attachment; it is prepared for this device's SM
  /// count so targeted faults carry per-SM armed state across launches.
  /// With no plan attached every launch takes the null fast path and is
  /// bit- and counter-identical to a fault-free build.
  void set_fault_plan(FaultPlan* plan);
  FaultPlan* fault_plan() const { return fault_plan_; }

  /// Arm (or clear, with kNone) a device-level fault domain.  Checked
  /// once at launch entry (engine_detail::check_device_serviceable)
  /// before any CTA is scheduled; survives reset() deliberately — a
  /// wedged device stays wedged until the fleet's chaos window ends,
  /// however many requests are retried on it in between.
  void set_device_fault(DeviceFault fault) { device_fault_ = fault; }
  DeviceFault device_fault() const { return device_fault_; }

 private:
  struct AllocInfo {
    std::size_t bytes = 0;
    std::size_t slack = 0;
    bool live = true;
    std::string name;
  };

  std::uint64_t alloc_bytes(std::size_t bytes, const char* name,
                            std::size_t slack_bytes = 0);
  void free_bytes(std::uint64_t addr);
  [[noreturn]] void translate_fail(std::uint64_t addr, std::size_t len,
                                   std::size_t used) const;

  DeviceConfig cfg_;
  std::unique_ptr<std::byte[]> arena_;
  std::size_t capacity_ = 0;
  // Accounting is mutated under alloc_mutex_ (host-side alloc/free can
  // race from serving threads); the counters are atomics so the
  // read-only accessors — and the translate() bounds check on the hot
  // simulation path — stay lock-free.
  mutable std::mutex alloc_mutex_;
  std::atomic<std::size_t> used_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> peak_{0};
  std::unordered_map<std::uint64_t, AllocInfo> allocations_;
  std::mutex l2_mutex_;
  SectorCache l2_;  ///< guarded by l2_mutex_
  SimOptions sim_options_;
  FaultPlan* fault_plan_ = nullptr;
  DeviceFault device_fault_ = DeviceFault::kNone;
};

template <class T>
std::span<T> Buffer<T>::host() {
  VSPARSE_CHECK(dev_ != nullptr);
  return {reinterpret_cast<T*>(dev_->translate(addr_, bytes())), count_};
}

template <class T>
std::span<const T> Buffer<T>::host() const {
  VSPARSE_CHECK(dev_ != nullptr);
  return {reinterpret_cast<const T*>(dev_->translate(addr_, bytes())), count_};
}

}  // namespace vsparse::gpusim
