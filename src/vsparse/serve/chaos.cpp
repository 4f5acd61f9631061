#include "vsparse/serve/chaos.hpp"

#include <algorithm>
#include <sstream>

#include "vsparse/common/rng.hpp"

namespace vsparse::serve {

const char* chaos_kind_name(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kEccBurst:
      return "ecc_burst";
    case ChaosKind::kBrownout:
      return "brownout";
    case ChaosKind::kMemPressure:
      return "mem_pressure";
    case ChaosKind::kNumKinds:
      break;
  }
  return "ecc_burst";
}

ChaosPlan ChaosPlan::storms(std::uint64_t seed, std::uint64_t horizon_ticks,
                            int storms_per_kind) {
  ChaosPlan plan;
  if (horizon_ticks < 16 || storms_per_kind <= 0) return plan;
  for (int kind = 0; kind < kNumChaosKinds; ++kind) {
    for (int i = 0; i < storms_per_kind; ++i) {
      const std::uint64_t h =
          mix64(seed ^ (static_cast<std::uint64_t>(kind) << 32) ^
                static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
      ChaosWindow w;
      w.kind = static_cast<ChaosKind>(kind);
      w.begin = h % (horizon_ticks * 3 / 4);
      const std::uint64_t len =
          horizon_ticks / 16 + mix64(h) % (horizon_ticks / 16 + 1);
      w.end = w.begin + len;
      plan.windows.push_back(w);
    }
  }
  std::sort(plan.windows.begin(), plan.windows.end(),
            [](const ChaosWindow& a, const ChaosWindow& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.end < b.end;
            });
  return plan;
}

ChaosActive ChaosPlan::at(std::uint64_t tick) const {
  ChaosActive active;
  for (const ChaosWindow& w : windows) {
    if (!w.covers(tick)) continue;
    switch (w.kind) {
      case ChaosKind::kEccBurst:
        active.ecc_burst = true;
        break;
      case ChaosKind::kBrownout:
        active.brownout = true;
        break;
      case ChaosKind::kMemPressure:
        active.mem_pressure = true;
        break;
      case ChaosKind::kNumKinds:
        break;
    }
  }
  return active;
}

std::string ChaosPlan::to_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const ChaosWindow& w = windows[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << chaos_kind_name(w.kind) << "\",\"begin\":" << w.begin
       << ",\"end\":" << w.end << "}";
  }
  os << "]";
  return os.str();
}

const char* device_chaos_kind_name(DeviceChaosKind kind) {
  switch (kind) {
    case DeviceChaosKind::kWedge:
      return "wedge";
    case DeviceChaosKind::kBrownout:
      return "brownout";
    case DeviceChaosKind::kFlap:
      return "flap";
    case DeviceChaosKind::kDeath:
      return "death";
    case DeviceChaosKind::kNumKinds:
      break;
  }
  return "wedge";
}

DeviceChaosPlan DeviceChaosPlan::storms(std::uint64_t seed,
                                        std::uint64_t horizon_ticks,
                                        int num_devices, int storms_per_kind) {
  DeviceChaosPlan plan;
  if (horizon_ticks < 16 || storms_per_kind <= 0 || num_devices < 2) {
    return plan;
  }
  for (int kind = 0; kind < kNumDeviceChaosKinds; ++kind) {
    for (int i = 0; i < storms_per_kind; ++i) {
      const std::uint64_t h =
          mix64(seed ^ 0xdef1ce ^ (static_cast<std::uint64_t>(kind) << 32) ^
                static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
      DeviceChaosWindow w;
      w.kind = static_cast<DeviceChaosKind>(kind);
      w.begin = h % (horizon_ticks * 3 / 4);
      const std::uint64_t len =
          horizon_ticks / 16 + mix64(h) % (horizon_ticks / 16 + 1);
      w.end = w.begin + len;
      if (w.kind == DeviceChaosKind::kDeath) {
        // Device 0 is immortal so the fleet never loses its last worker.
        w.device = 1 + static_cast<int>(mix64(h ^ 0xd00d) %
                                        static_cast<std::uint64_t>(
                                            num_devices - 1));
      } else {
        w.device = static_cast<int>(mix64(h ^ 0xd00d) %
                                    static_cast<std::uint64_t>(num_devices));
      }
      if (w.kind == DeviceChaosKind::kFlap) {
        w.flap_period = std::max<std::uint64_t>(len / 6, 1);
      }
      plan.windows.push_back(w);
    }
  }
  std::sort(plan.windows.begin(), plan.windows.end(),
            [](const DeviceChaosWindow& a, const DeviceChaosWindow& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.device < b.device;
            });
  return plan;
}

DeviceFaultActive DeviceChaosPlan::at(int device, std::uint64_t tick) const {
  DeviceFaultActive active;
  for (const DeviceChaosWindow& w : windows) {
    if (w.device != device) continue;
    switch (w.kind) {
      case DeviceChaosKind::kWedge:
        if (w.covers(tick)) active.wedged = true;
        break;
      case DeviceChaosKind::kBrownout:
        if (w.covers(tick)) active.brownout = true;
        break;
      case DeviceChaosKind::kFlap:
        if (w.covers(tick) &&
            ((tick - w.begin) / w.flap_period) % 2 == 0) {
          active.wedged = true;
        }
        break;
      case DeviceChaosKind::kDeath:
        if (tick >= w.begin) active.dead = true;  // permanent
        break;
      case DeviceChaosKind::kNumKinds:
        break;
    }
  }
  return active;
}

std::string DeviceChaosPlan::to_json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const DeviceChaosWindow& w = windows[i];
    if (i) os << ",";
    os << "{\"kind\":\"" << device_chaos_kind_name(w.kind)
       << "\",\"device\":" << w.device << ",\"begin\":" << w.begin
       << ",\"end\":" << w.end << ",\"flap_period\":" << w.flap_period << "}";
  }
  os << "]";
  return os.str();
}

}  // namespace vsparse::serve
