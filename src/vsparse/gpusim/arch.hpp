// Named architecture presets — the table behind every `--arch=NAME`.
//
// The paper evaluates one platform (Volta V100, HMMA.884); "which
// tensor-core kernel wins" is a function of the MMA shape and the
// cache/bandwidth ratios, so cross-architecture studies need
// architectures as first-class, *named* points rather than ad-hoc
// hand-edited DeviceConfigs.  Every entry carries a stable name (the
// `--arch` value and the certificate key), a one-line summary for
// CLIs, and a factory returning the full DeviceConfig.
//
// The table ships four points:
//   volta-v100         the paper's platform (defaults; HMMA.884)
//   turing-t4          smaller SM array / L2, mma.m16n8k8 metadata
//   ampere-a100        bigger L2, 2x TCU rate, mma.m16n8k16 metadata
//   volta-hmma-switch  V100 + the Fig. 15 HMMA...SWITCH extension: the
//                      SDDMM octet kernel's inverted-pattern fix costs
//                      nothing, so kAuto picks the "mma (arch)" variant
//                      — the paper's proposal as one architecture point
#pragma once

#include <string_view>
#include <vector>

#include "vsparse/gpusim/config.hpp"

namespace vsparse::gpusim {

struct ArchPreset {
  const char* name;     ///< stable id; DeviceConfig::arch of the result
  const char* summary;  ///< one-line description for --arch=help output
  DeviceConfig (*make)();
};

/// The preset table, in documentation order.
const std::vector<ArchPreset>& arch_presets();

/// Preset by name; nullptr when unknown.
const ArchPreset* find_arch_preset(std::string_view name);

/// Comma-joined preset names ("volta-v100, turing-t4, ...") for error
/// messages and --help text.
std::string arch_preset_names();

}  // namespace vsparse::gpusim
