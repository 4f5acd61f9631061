#include "vsparse/gpusim/arch.hpp"

#include <string>

namespace vsparse::gpusim {

namespace {

DeviceConfig make_volta() { return DeviceConfig::volta_v100(); }

/// Turing T4 (70 W inference part): half the V100's SM count, a 4 MiB
/// L2 and ~320 GB/s GDDR6 — the bandwidth-starved end of the table,
/// where the low-traffic octet kernel gains ground on dense.  Turing's
/// tensor cores expose mma.m16n8k8; the functional mapping still
/// decomposes into 884 steps, one per sub-core per cycle.
DeviceConfig make_turing_t4() {
  DeviceConfig cfg;
  cfg.arch = "turing-t4";
  cfg.mma = MmaShape{16, 8, 8};
  cfg.num_sms = 40;
  cfg.max_threads_per_sm = 1024;
  cfg.max_warps_per_sm = 32;
  cfg.l1_bytes = 96 << 10;
  cfg.max_smem_per_cta = 64 << 10;
  cfg.l2_bytes = 4 << 20;
  cfg.dram_bytes_per_cycle_total = 210.0;  // ~320 GB/s at 1.59 GHz
  cfg.l2_bytes_per_cycle_total = 1200.0;
  return cfg;
}

DeviceConfig make_ampere() { return DeviceConfig::ampere_a100(); }

/// The paper's Fig. 15 proposal as an architecture point: a V100 whose
/// TCU swaps operand buses on the inverted-pattern HMMA steps
/// (HMMA.884.F32.F32.STEP*.SWITCH).  Everything else matches
/// volta-v100, so any counter difference against it isolates the
/// extension — and kAuto SDDMM picks the free "mma (arch)" variant.
DeviceConfig make_volta_hmma_switch() {
  DeviceConfig cfg;
  cfg.arch = "volta-hmma-switch";
  cfg.hmma_switch = true;
  return cfg;
}

}  // namespace

const std::vector<ArchPreset>& arch_presets() {
  static const std::vector<ArchPreset> kTable = {
      {"volta-v100", "NVIDIA V100: the paper's platform, HMMA.884",
       &make_volta},
      {"turing-t4", "NVIDIA T4: 40 SMs, 4 MiB L2, mma.m16n8k8",
       &make_turing_t4},
      {"ampere-a100", "NVIDIA A100: 108 SMs, 40 MiB L2, mma.m16n8k16",
       &make_ampere},
      {"volta-hmma-switch",
       "V100 + Fig. 15 HMMA...SWITCH (free inverted-pattern fix)",
       &make_volta_hmma_switch},
  };
  return kTable;
}

const ArchPreset* find_arch_preset(std::string_view name) {
  for (const ArchPreset& preset : arch_presets()) {
    if (name == preset.name) return &preset;
  }
  return nullptr;
}

std::string arch_preset_names() {
  std::string out;
  for (const ArchPreset& preset : arch_presets()) {
    if (!out.empty()) out += ", ";
    out += preset.name;
  }
  return out;
}

}  // namespace vsparse::gpusim
