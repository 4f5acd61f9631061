// Architectural parameters of the simulated GPU.
//
// Defaults model an NVIDIA Volta V100 (the paper's platform, §2.1 and
// [11] Jia et al.'s microbenchmarking): 80 SMs, 4 sub-cores per SM,
// 64K 32-bit registers per SM, a 128 KiB unified L1/shared-memory slab,
// a 6 MiB L2, 32 B cache sectors, 128 B cache lines / transactions, and
// a 12 KiB L0 instruction cache per sub-core (128-bit instruction words
// -> 768 instructions, the capacity that §3.2 shows Blocked-ELL
// overflowing).
//
// Throughput numbers are in bytes (or instructions) per model cycle and
// feed the CostModel roofline.  All paper results are speedup *ratios*,
// so only the relative balance of these rates matters.
//
// Nothing here describes the host: the L2 is one cache model whatever
// the simulator's thread count (engine/launch.hpp replays every SM's L2
// accesses in CTA order), so no field trades fidelity for host speed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vsparse::gpusim {

/// Native MMA instruction shape of the tensor cores (m x n x k per
/// step).  Volta issues HMMA.884 (m8n8k4) — the shape all the paper's
/// octet mappings are built on; Turing/Ampere expose the wider
/// mma.m16n8k8 / m16n8k16 PTX shapes.  The functional kernels always
/// decompose into 884 steps (Ampere emulates them), so this field is
/// architecture metadata: which kernel mapping wins flips with the
/// shape (the paper's Fig. 15 HMMA-SWITCH study).
struct MmaShape {
  int m = 8;
  int n = 8;
  int k = 4;
};

struct DeviceConfig {
  // --- architecture identity ------------------------------------------
  /// Stable preset name ("volta-v100", ...): drivers print it and
  /// shape-class certificates key on it; hand-modified configs keep the
  /// name of the preset they started from.
  const char* arch = "volta-v100";
  MmaShape mma;  ///< native tensor-core step shape (see above)
  /// The Fig. 15 HMMA...SWITCH proposal: the TCU swaps operand buses on
  /// the inverted-pattern steps at no extra issue cost.  Off on every
  /// shipping part; the "volta-hmma-switch" preset is the paper's
  /// what-if architecture point.
  bool hmma_switch = false;

  // --- SM array -----------------------------------------------------
  int num_sms = 80;
  int subcores_per_sm = 4;
  int max_threads_per_sm = 2048;
  int max_ctas_per_sm = 32;
  int max_warps_per_sm = 64;
  int regfile_per_sm = 64 * 1024;  ///< 32-bit registers
  int max_regs_per_thread = 255;

  // --- memory hierarchy ----------------------------------------------
  std::size_t dram_capacity = std::size_t{2} << 30;  ///< simulated DRAM arena
  std::size_t l1_bytes = 128 << 10;   ///< unified L1 + shared carveout
  std::size_t max_smem_per_cta = 96 << 10;
  std::size_t l2_bytes = 6 << 20;
  int line_bytes = 128;    ///< transaction / cache-line granularity
  /// Fill & miss-count granularity.  The warp ops' coalescing walks are
  /// written for 32 B sectors, so Device construction rejects any other
  /// value rather than let the per-lane and span ops count differently.
  int sector_bytes = 32;
  int l1_ways = 4;
  int l2_ways = 16;
  int smem_banks = 32;     ///< 4-byte-wide shared-memory banks

  // --- L0 instruction cache (per sub-core) ---------------------------
  int icache_instrs = 768;  ///< 12 KiB / 128-bit instruction words

  // --- throughput model (per SM per cycle unless noted) ---------------
  double hmma_per_cycle = 4.0;      ///< HMMA.884 steps (1 per sub-core)
  double fma_lanes = 64.0;          ///< FP32 FMA lanes (16 per sub-core)
  double half_fma_lanes = 128.0;    ///< FP16 HFMA2 lanes
  double alu_lanes = 64.0;          ///< INT32 lanes (IMAD/IADD3)
  double issue_per_cycle = 4.0;     ///< warp instructions issued (1/sub-core)
  double lsu_requests_per_cycle = 4.0;  ///< LD/ST warp instructions
  double smem_bytes_per_cycle = 128.0;  ///< shared-memory bandwidth
  double l1_sectors_per_cycle = 4.0;    ///< L1 return bandwidth (sectors)
  double l2_bytes_per_cycle_total = 2000.0;  ///< whole-chip L2 bandwidth
  double dram_bytes_per_cycle_total = 650.0; ///< ~900 GB/s at 1.38 GHz

  // --- latency / stall model constants --------------------------------
  double dram_latency = 400.0;     ///< cycles, used for latency-bound tails
  /// Fixed kernel-launch + drain overhead (~0.5 us at 1.38 GHz).  The
  /// paper's wall-clock speedups include it (back-to-back launches), which
  /// what compresses ratios on small problems (e.g. the N = 64 panels).
  double launch_overhead_cycles = 700.0;
  double fixed_latency = 6.0;      ///< ALU dependent-issue latency ("Wait")
  double smem_latency = 24.0;      ///< shared-memory load-to-use ("Short
                                   ///  Scoreboard")
  double icache_refill_cycles = 30.0;  ///< L0 miss service time

  /// The paper's evaluation platform.
  static DeviceConfig volta_v100() { return DeviceConfig{}; }

  /// An Ampere A100 (SXM4 40 GB) variant — an extension beyond the
  /// paper for cross-architecture what-if studies: more SMs, a much
  /// larger L2, double the per-SM L1/shared slab, ~1.7x the DRAM
  /// bandwidth, and 2x the tensor-core step throughput.  The octet
  /// kernels' PTX-level mapping carries over (mma.m8n8k4 is emulated on
  /// Ampere; the bandwidth/capacity ratios are what change the
  /// crossover points).
  static DeviceConfig ampere_a100() {
    DeviceConfig cfg;
    cfg.arch = "ampere-a100";
    cfg.mma = MmaShape{16, 8, 16};
    cfg.num_sms = 108;
    cfg.l1_bytes = 192 << 10;
    cfg.max_smem_per_cta = 164 << 10;
    cfg.l2_bytes = 40 << 20;
    cfg.regfile_per_sm = 64 * 1024;
    cfg.hmma_per_cycle = 8.0;
    cfg.half_fma_lanes = 256.0;
    cfg.dram_bytes_per_cycle_total = 1100.0;  // ~1.55 TB/s at 1.41 GHz
    cfg.l2_bytes_per_cycle_total = 3200.0;
    return cfg;
  }
};

}  // namespace vsparse::gpusim
