// Chaos scenarios — seeded fault *storms* composed from the PR 2 fault
// primitives, so the scheduler can be soaked under correlated failures
// instead of independent per-request upsets.
//
// A ChaosPlan is a set of [begin, end) tick windows, each of one kind:
//
//   kEccBurst       requests launched inside the window carry a
//                   FaultPlan with a sticky multi-bit target on the
//                   sparse operand plus elevated transient rates —
//                   the octet rung fails repeatedly, tripping its
//                   breaker.
//   kBrownout       SimOptions::watchdog_cta_ops drops to a starvation
//                   budget; long-running CTAs hit LaunchTimeoutError
//                   (per-SM brownout via the PR 2 watchdog).
//   kMemPressure    the per-request memory quota is slashed (quota/8);
//                   fat requests are rejected with kQuotaExceeded at
//                   admission.
//
// Windows are generated by splitmix64 from (seed, kind, index) over a
// given horizon — same seed, same storms, any --threads=N.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vsparse::serve {

enum class ChaosKind : std::uint8_t {
  kEccBurst = 0,
  kBrownout,
  kMemPressure,
  kNumKinds
};

constexpr int kNumChaosKinds = static_cast<int>(ChaosKind::kNumKinds);

const char* chaos_kind_name(ChaosKind kind);

/// One storm: [begin, end) in simulated ticks.
struct ChaosWindow {
  ChaosKind kind = ChaosKind::kEccBurst;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  bool covers(std::uint64_t tick) const { return tick >= begin && tick < end; }
};

/// Which storm kinds are live at one instant.
struct ChaosActive {
  bool ecc_burst = false;
  bool brownout = false;
  bool mem_pressure = false;
};

/// The composed scenario: seeded windows over a fixed horizon.
struct ChaosPlan {
  std::vector<ChaosWindow> windows;

  /// `storms_per_kind` windows of every kind, each 1/16..1/8 of the
  /// horizon long, starting somewhere in the first 3/4 — storms of
  /// different kinds may overlap, which is the point.  Windows are
  /// sorted by (begin, kind) so the plan serializes deterministically.
  static ChaosPlan storms(std::uint64_t seed, std::uint64_t horizon_ticks,
                          int storms_per_kind = 2);

  ChaosActive at(std::uint64_t tick) const;

  /// Deterministic JSON array of windows for the load report.
  std::string to_json() const;
};

// ---- device-level fault domains --------------------------------------
//
// Where ChaosKind storms degrade individual *launches*, device storms
// take out whole fleet workers:
//
//   kWedge     every launch on the device times out before scheduling
//              a CTA (gpusim::DeviceFault::kWedged)
//   kBrownout  the device's clocks sag: launches run under a starvation
//              watchdog budget for the window
//   kFlap      the device alternates wedged/healthy inside the window
//              with a seeded period — the breaker-exercising worst case
//   kDeath     the device is lost permanently from `begin` on
//              (gpusim::DeviceFault::kDead); `end` is ignored.  Death
//              storms never target device 0, so a fleet always keeps at
//              least one serviceable worker.

enum class DeviceChaosKind : std::uint8_t {
  kWedge = 0,
  kBrownout,
  kFlap,
  kDeath,
  kNumKinds
};

constexpr int kNumDeviceChaosKinds =
    static_cast<int>(DeviceChaosKind::kNumKinds);

const char* device_chaos_kind_name(DeviceChaosKind kind);

/// One device storm: [begin, end) on one fleet worker.
struct DeviceChaosWindow {
  DeviceChaosKind kind = DeviceChaosKind::kWedge;
  int device = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  /// kFlap only: the device is wedged during even (tick - begin) /
  /// flap_period phases and healthy during odd ones.
  std::uint64_t flap_period = 0;

  bool covers(std::uint64_t tick) const { return tick >= begin && tick < end; }
};

/// A device's composite fault state at one instant.
struct DeviceFaultActive {
  bool wedged = false;
  bool brownout = false;
  bool dead = false;
};

/// An operator-initiated maintenance window: the fleet drains `device`
/// for [begin, end) — placements route around it, then it restores.
struct DrainWindow {
  int device = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  bool covers(std::uint64_t tick) const { return tick >= begin && tick < end; }
};

/// Seeded device-storm scenario over a fleet.
struct DeviceChaosPlan {
  std::vector<DeviceChaosWindow> windows;

  /// `storms_per_kind` windows of every kind.  Empty when num_devices
  /// < 2: a one-device fleet gets no device storms (there is nowhere to
  /// fail over to, and the fleet-of-1 determinism contract must hold).
  /// Sorted by (begin, kind, device) for deterministic serialization.
  static DeviceChaosPlan storms(std::uint64_t seed,
                                std::uint64_t horizon_ticks, int num_devices,
                                int storms_per_kind = 1);

  DeviceFaultActive at(int device, std::uint64_t tick) const;

  /// Deterministic JSON array of windows for the v2 load report.
  std::string to_json() const;
};

}  // namespace vsparse::serve
