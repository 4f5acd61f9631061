// Kernel registry invariants: the algorithm enums and the desc table
// grow in lockstep (every algorithm value maps to exactly one desc),
// names are unique (breakers and repro bundles key on them) and every
// algorithm value round-trips, the degradation ladder reproduces the
// Supervisor's pre-registry hard-coded order, and the architecture
// preset table changes dispatch where (and only where) it should.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/arch.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/registry.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::kernels {
namespace {

// std::string, not const char*: a vector of pointers compares
// addresses, which match only when the linker merges identical string
// literals (ASan's global redzones stop it from doing so).
std::vector<std::string> ladder_names(KernelOp op, const DispatchShape& s) {
  std::vector<std::string> names;
  for (const LadderEntry& rung : fallback_ladder(op, s)) {
    names.push_back(rung.desc->name);
  }
  return names;
}

TEST(Registry, EveryDispatchableAlgorithmHasExactlyOneDesc) {
  for (int a = 1; a < static_cast<int>(SpmmAlgorithm::kNumSpmmAlgorithms);
       ++a) {
    int count = 0;
    for (const KernelDesc& desc : kernel_registry()) {
      if (desc.op == KernelOp::kSpmm && desc.algorithm == a) ++count;
    }
    EXPECT_EQ(count, 1) << "SpmmAlgorithm value " << a;
  }
  for (int a = 1; a < static_cast<int>(SddmmAlgorithm::kNumSddmmAlgorithms);
       ++a) {
    int count = 0;
    for (const KernelDesc& desc : kernel_registry()) {
      if (desc.op == KernelOp::kSddmm && desc.algorithm == a) ++count;
    }
    EXPECT_EQ(count, 1) << "SddmmAlgorithm value " << a;
  }
}

TEST(Registry, AutoIsNotARegisteredAlgorithm) {
  EXPECT_EQ(find_kernel(KernelOp::kSpmm,
                        static_cast<int>(SpmmAlgorithm::kAuto)),
            nullptr);
  EXPECT_EQ(find_kernel(KernelOp::kSddmm,
                        static_cast<int>(SddmmAlgorithm::kAuto)),
            nullptr);
  EXPECT_THROW(kernel_for(SpmmAlgorithm::kAuto), vsparse::Error);
  EXPECT_THROW(kernel_for(SddmmAlgorithm::kAuto), vsparse::Error);
}

// serve_rung_of (serve/supervisor.cpp) switches on the raw algorithm
// value for both ops at once; this pin keeps the two enums aligned.
TEST(Registry, SpmmAndSddmmEnumeratorValuesAlign) {
  EXPECT_EQ(static_cast<int>(SpmmAlgorithm::kAuto),
            static_cast<int>(SddmmAlgorithm::kAuto));
  EXPECT_EQ(static_cast<int>(SpmmAlgorithm::kOctet),
            static_cast<int>(SddmmAlgorithm::kOctet));
  EXPECT_EQ(static_cast<int>(SpmmAlgorithm::kWmmaWarp),
            static_cast<int>(SddmmAlgorithm::kWmmaWarp));
  EXPECT_EQ(static_cast<int>(SpmmAlgorithm::kFpuSubwarp),
            static_cast<int>(SddmmAlgorithm::kFpuSubwarp));
  EXPECT_EQ(static_cast<int>(SpmmAlgorithm::kCsrFine),
            static_cast<int>(SddmmAlgorithm::kCsrFine));
}

TEST(Registry, NamesAreUniqueAndRoundTrip) {
  std::set<std::string> seen;
  for (const KernelDesc& desc : kernel_registry()) {
    EXPECT_TRUE(seen.insert(desc.name).second) << desc.name;
    if (desc.algorithm != kNoAlgorithm) {
      EXPECT_EQ(find_kernel(desc.op, desc.algorithm), &desc) << desc.name;
    }
  }
}

TEST(Registry, ThunksMatchTheOp) {
  for (const KernelDesc& desc : kernel_registry()) {
    if (desc.op == KernelOp::kSpmm) {
      EXPECT_NE(desc.spmm_launch, nullptr) << desc.name;
      EXPECT_EQ(desc.sddmm_launch, nullptr) << desc.name;
      EXPECT_EQ(desc.spmm_abft_launch != nullptr, desc.has_abft) << desc.name;
    } else {
      EXPECT_NE(desc.sddmm_launch, nullptr) << desc.name;
      EXPECT_EQ(desc.spmm_launch, nullptr) << desc.name;
      EXPECT_FALSE(desc.has_abft) << desc.name;
    }
  }
}

TEST(Registry, StaticAutoHeuristicUnchanged) {
  EXPECT_EQ(resolve_auto_spmm({64, 64, 64, 1, 0.5}),
            SpmmAlgorithm::kFpuSubwarp);
  EXPECT_EQ(resolve_auto_spmm({64, 64, 64, 2, 0.5}), SpmmAlgorithm::kOctet);
  EXPECT_EQ(resolve_auto_sddmm({64, 64, 64, 1, 0.5}),
            SddmmAlgorithm::kFpuSubwarp);
  EXPECT_EQ(resolve_auto_sddmm({64, 64, 64, 8, 0.5}), SddmmAlgorithm::kOctet);
}

TEST(Registry, EligibilityPinsPreRegistrySemantics) {
  const KernelDesc& octet = kernel_for(SpmmAlgorithm::kOctet);
  EXPECT_TRUE(octet.eligible({64, 64, 64, 4, 0.5}));
  EXPECT_FALSE(octet.eligible({64, 64, 63, 4, 0.5}));   // n % 64
  EXPECT_FALSE(octet.eligible({64, 64, 64, 1, 0.5}));   // v >= 2
  EXPECT_FALSE(octet.supports_v(1));
  EXPECT_TRUE(octet.supports_v(8));

  const KernelDesc& fpu = kernel_for(SpmmAlgorithm::kFpuSubwarp);
  EXPECT_TRUE(fpu.eligible({64, 64, 16, 1, 0.5}));
  EXPECT_FALSE(fpu.eligible({64, 64, 17, 1, 0.5}));     // n % 16

  const KernelDesc& csr = kernel_for(SpmmAlgorithm::kCsrFine);
  EXPECT_TRUE(csr.eligible({64, 64, 32, 1, 0.5}));
  EXPECT_FALSE(csr.eligible({64, 64, 32, 2, 0.5}));     // v == 1 only

  const KernelDesc* dense = nullptr;
  for (const KernelDesc& desc : kernel_registry()) {
    if (std::string_view(desc.name) == "spmm_dense_gemm") dense = &desc;
  }
  ASSERT_NE(dense, nullptr);
  EXPECT_EQ(dense->algorithm, kNoAlgorithm);  // a ladder rung only
  EXPECT_TRUE(dense->eligible({64, 16, 64, 4, 0.5}));
  EXPECT_FALSE(dense->eligible({65, 16, 64, 4, 0.5}));  // m % 64
}

// The ladder must be byte-for-byte the Supervisor's pre-registry
// hard-coded order: {octet+ABFT, blockedEll, dense, fpu, csr} for SpMM
// and {wmma, fpu, csr} for SDDMM, eligibility-filtered.
TEST(Registry, FallbackLadderReproducesHardCodedOrder) {
  const DispatchShape tcu{64, 16, 64, 4, 0.5};
  EXPECT_EQ(ladder_names(KernelOp::kSpmm, tcu),
            (std::vector<std::string>{"spmm_octet", "spmm_blocked_ell",
                                      "spmm_dense_gemm", "spmm_fpu_subwarp"}));
  const auto rungs = fallback_ladder(KernelOp::kSpmm, tcu);
  EXPECT_TRUE(rungs.front().abft);  // the octet rung runs with ABFT
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    EXPECT_FALSE(rungs[i].abft);
  }

  const DispatchShape scalar{64, 16, 64, 1, 0.5};
  EXPECT_EQ(ladder_names(KernelOp::kSpmm, scalar),
            (std::vector<std::string>{"spmm_dense_gemm", "spmm_fpu_subwarp",
                                      "spmm_csr_fine"}));

  EXPECT_EQ(ladder_names(KernelOp::kSddmm, tcu),
            (std::vector<std::string>{"sddmm_wmma_warp",
                                      "sddmm_fpu_subwarp"}));
  EXPECT_EQ(ladder_names(KernelOp::kSddmm, scalar),
            (std::vector<std::string>{"sddmm_fpu_subwarp",
                                      "sddmm_csr_fine"}));
}

TEST(ArchPresets, TableRoundTripsAndRejectsUnknownNames) {
  for (const gpusim::ArchPreset& preset : gpusim::arch_presets()) {
    const gpusim::DeviceConfig cfg = gpusim::DeviceConfig::preset(preset.name);
    EXPECT_STREQ(cfg.arch, preset.name);
  }
  EXPECT_THROW(gpusim::DeviceConfig::preset("kepler-k80"), vsparse::Error);
  EXPECT_EQ(gpusim::find_arch_preset("kepler-k80"), nullptr);
}

TEST(ArchPresets, OnlyTheHmmaSwitchPresetSetsTheFlag) {
  for (const gpusim::ArchPreset& preset : gpusim::arch_presets()) {
    const gpusim::DeviceConfig cfg = preset.make();
    EXPECT_EQ(cfg.hmma_switch,
              std::string(preset.name) == "volta-hmma-switch")
        << preset.name;
  }
}

// Per-preset dispatch: the same SDDMM call picks the Fig. 15
// "mma (arch)" inverted-pattern variant on the HMMA-SWITCH preset and
// the paper's default "mma (reg)" everywhere else.
TEST(ArchPresets, HmmaSwitchPresetChangesSddmmVariant) {
  Rng rng(31);
  DenseMatrix<half_t> a(32, 64);
  a.fill_random_int(rng);
  DenseMatrix<half_t> b(64, 64, Layout::kColMajor);
  b.fill_random_int(rng);
  const Cvs mask = make_cvs_mask(32, 64, 4, 0.6, rng);

  const auto profile_on = [&](const char* arch) {
    gpusim::DeviceConfig cfg = gpusim::DeviceConfig::preset(arch);
    cfg.dram_capacity = 128 << 20;
    gpusim::Device dev(cfg);
    auto da = to_device(dev, a);
    auto db = to_device(dev, b);
    auto dmask = to_device(dev, mask);
    auto out = dev.alloc<half_t>(mask.col_idx.size() *
                                 static_cast<std::size_t>(mask.v));
    return sddmm(dev, da, db, dmask, out).config.profile.name;
  };

  EXPECT_EQ(profile_on("volta-v100"), "sddmm_octet_reg_v4");
  EXPECT_EQ(profile_on("volta-hmma-switch"), "sddmm_octet_arch_v4");
  EXPECT_EQ(profile_on("ampere-a100"), "sddmm_octet_reg_v4");
}

}  // namespace
}  // namespace vsparse::kernels
