// Shape-class verifier tests: shape class corner enumeration, the
// corner operands, the whole certified set proved over small classes
// on every architecture preset by running the real kernels at the
// class corners, eligible() agreeing with the kernels' own
// preconditions, and seeded-broken launch bodies refuted with an
// in-class counterexample.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/arch.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/verify/verifier.hpp"
#include "vsparse/kernels/registry.hpp"

namespace vsparse {
namespace {

using verify::ShapeClass;
using verify::ShapeCorner;
using verify::Verdict;
using verify::VerdictKind;

// ---- shape classes ----------------------------------------------------

TEST(ShapeClasses, CornersEnumerateExtremesAndMembership) {
  ShapeClass cls;
  cls.name = "t";
  cls.v = 4;
  cls.m = {64, 256, 64};
  cls.k = {64, 64, 64};    // degenerate: lo == hi
  cls.n = {64, 128, 64};
  cls.d_lo = 0.1;
  cls.d_hi = 0.5;
  const std::vector<ShapeCorner> corners = cls.corners();
  // 2 (m) x 1 (k) x 2 (n) x 2 (density) = 8 corners.
  EXPECT_EQ(corners.size(), 8u);
  for (const ShapeCorner& c : corners) {
    EXPECT_TRUE(cls.contains(c)) << c.str();
  }
  EXPECT_FALSE(cls.contains({63, 64, 64, 4, 0.3}));   // modulus
  EXPECT_FALSE(cls.contains({64, 64, 64, 2, 0.3}));   // wrong v
  EXPECT_FALSE(cls.contains({64, 64, 64, 4, 0.7}));   // density
}

TEST(ShapeClasses, SingletonDenotesExactlyOneShape) {
  const ShapeCorner s{128, 64, 64, 2, 0.4};
  const ShapeClass cls = ShapeClass::singleton("one", s);
  EXPECT_TRUE(cls.contains(s));
  const std::vector<ShapeCorner> corners = cls.corners();
  ASSERT_GE(corners.size(), 1u);
  for (const ShapeCorner& c : corners) {
    EXPECT_EQ(c.m, s.m);
    EXPECT_EQ(c.k, s.k);
    EXPECT_EQ(c.n, s.n);
    EXPECT_EQ(c.v, s.v);
  }
}

// ---- corner operands --------------------------------------------------

TEST(CornerOperand, ProbedRowEndsAtTheLastElementOfItsArrays) {
  for (int v : {1, 2, 4, 8}) {
    const int rows = 64, cols = 48;
    for (int row : {0, rows / v - 1}) {
      for (int count : {cols, cols - 1}) {
        const Cvs m = make_corner_cvs(rows, cols, v, row, count);
        EXPECT_NO_THROW(m.validate());
        const auto r = static_cast<std::size_t>(row);
        // Every other row is empty, so the probed row starts at 0 and
        // ends at the last element of col_idx and values.
        EXPECT_EQ(m.row_ptr[r], 0);
        EXPECT_EQ(m.row_ptr[r + 1], m.nnz_vectors());
        EXPECT_EQ(m.nnz_vectors(), count);
        EXPECT_EQ(m.values.size(), static_cast<std::size_t>(count * v));
        EXPECT_EQ(m.col_idx.back(), cols - 1);
        EXPECT_EQ(m.col_idx.front(), cols - count);
      }
    }
    const Cvs full = make_corner_cvs(rows, cols, v, 0, cols);
    EXPECT_EQ(full.col_idx.front(), 0);  // gathers columns 0 and cols-1
    const Cvs empty = make_corner_cvs(rows, cols, v, 0, 0);
    EXPECT_NO_THROW(empty.validate());
    EXPECT_EQ(empty.nnz_vectors(), 0);
    EXPECT_TRUE(empty.values.empty());
  }
}

// ---- the certified set is proved everywhere ---------------------------

/// Small classes: every vector width, m and k in [64, 256], n in
/// [64, 128] — the extents serve_load requests use.
std::vector<ShapeClass> small_classes() {
  std::vector<ShapeClass> out;
  for (int v : {1, 2, 4, 8}) {
    ShapeClass c;
    c.name = "small-v" + std::to_string(v);
    c.v = v;
    c.m = {64, 256, 64};
    c.k = {64, 256, 64};
    c.n = {64, 128, 64};
    c.d_lo = 0.05;
    c.d_hi = 0.5;
    out.push_back(c);
  }
  return out;
}

// Also pins what static_verify covers, so a silently shrunk sweep fails
// here: 13 targets (9 registry kernels, 2 dense GEMMs, 2 softmaxes),
// 6 builtin classes and 4 presets.
TEST(Verifier, FullRegistryProvedOverSmallClassesOnEveryPreset) {
  std::vector<gpusim::DeviceConfig> archs;
  for (const gpusim::ArchPreset& preset : gpusim::arch_presets()) {
    archs.push_back(preset.make());
  }
  ASSERT_EQ(archs.size(), 4u);
  ASSERT_EQ(verify::builtin_shape_classes().size(), 6u);
  const std::vector<verify::Target>& targets = verify::verification_targets();
  ASSERT_EQ(targets.size(), 13u);
  ASSERT_EQ(targets.size(), kernels::kernel_registry().size() + 4);
  const std::vector<verify::CertEntry> entries =
      verify::certify(targets, small_classes(), archs);
  ASSERT_EQ(entries.size(), targets.size() * archs.size() * 4);
  int ran = 0;
  for (const verify::CertEntry& e : entries) {
    EXPECT_EQ(e.verdict.kind, VerdictKind::kProved)
        << e.kernel << " over " << e.cls.name << " on " << e.arch << ": "
        << e.verdict.detail << " at " << e.verdict.site
        << " (counterexample " << e.verdict.counterexample.str() << ")";
    EXPECT_GE(e.verdict.corners_checked, 1) << e.kernel << " " << e.cls.name;
    EXPECT_LE(e.verdict.corners_rejected, e.verdict.corners_checked)
        << e.kernel << " " << e.cls.name;
    if (e.verdict.corners_rejected < e.verdict.corners_checked) ++ran;
  }
  EXPECT_GT(ran, 0);
}

// eligible() and the kernels' own preconditions agree on a seeded shape
// corpus: a shape a desc calls eligible is run (never rejected) and
// never refuted, and an ineligible shape is rejected before any launch.
TEST(Verifier, EligibleAgreesWithVerdictsOnSeededCorpus) {
  Rng rng(0xC0FFEEu);
  const gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  const int dims[] = {16, 32, 64, 128, 192, 256};
  const int vs[] = {1, 2, 4, 8};
  std::vector<ShapeClass> corpus;
  for (int i = 0; i < 40; ++i) {
    ShapeCorner s;
    s.m = dims[rng.uniform_int(0, 5)];
    s.k = dims[rng.uniform_int(0, 5)];
    s.n = dims[rng.uniform_int(0, 5)];
    s.v = vs[rng.uniform_int(0, 3)];
    s.density = 0.1 + 0.2 * rng.uniform_int(0, 4);
    corpus.push_back(ShapeClass::singleton("corpus" + std::to_string(i), s));
  }
  const std::vector<kernels::KernelDesc>& registry = kernels::kernel_registry();
  for (std::size_t d = 0; d < registry.size(); ++d) {
    const kernels::KernelDesc& desc = registry[d];
    const std::vector<Verdict> verdicts =
        verify::verify_target(verify::verification_targets()[d], corpus, hw);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const ShapeCorner s = corpus[i].corners().front();
      const Verdict& v = verdicts[i];
      EXPECT_EQ(v.kind, VerdictKind::kProved)
          << desc.name << " on " << s.str() << ": " << v.detail;
      const kernels::DispatchShape ds{s.m, s.k, s.n, s.v, s.density};
      EXPECT_EQ(desc.eligible(ds) && desc.supports_v(s.v),
                v.corners_rejected < v.corners_checked)
          << desc.name << " on " << s.str();
    }
  }
}

// ---- seeded-broken kernels must be refuted ----------------------------

/// A target whose runner launches `cfg` with the body `make_body` builds
/// on the probe device.
template <class MakeBody>
verify::Target seeded(const char* name, gpusim::LaunchConfig cfg,
                      MakeBody make_body) {
  return {name, verify::SparseOperand::kNone,
          [cfg, make_body](verify::ProbeDevice& pd, const verify::Probe& p) {
            gpusim::launch(pd.dev(), cfg, make_body(pd, p));
          }};
}

gpusim::LaunchConfig one_cta(int threads, std::size_t smem = 0) {
  gpusim::LaunchConfig cfg;
  cfg.grid = 1;
  cfg.cta_threads = threads;
  cfg.smem_bytes = smem;
  return cfg;
}

/// One lane storing a half at `addr`.
auto store_at(std::uint64_t addr) {
  return [addr](gpusim::Cta& cta) {
    gpusim::AddrLanes lanes{};
    lanes[0] = addr;
    gpusim::Lanes<half_t> data{};
    cta.warp(0).stg(lanes, data, 0x1u);
  };
}

TEST(Verifier, SeededBrokenKernelsAreRefutedWithConcreteCounterexample) {
  const gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  ShapeClass cls;
  cls.name = "seeded";
  cls.v = 4;
  cls.m = {64, 128, 64};
  cls.k = {64, 64, 64};
  cls.n = {64, 64, 64};
  cls.d_lo = 0.3;
  cls.d_hi = 0.3;

  // A store one element past an M x N output with a live array behind
  // it: M * N * 2 is a multiple of 256 B for every member, so the store
  // lands on the next allocation — the dead guard, not the neighbour.
  const verify::Target overrun = seeded(
      "broken.overrun", one_cta(32), [](verify::ProbeDevice& pd,
                                        const verify::Probe& p) {
        const std::size_t elems =
            static_cast<std::size_t>(p.shape.m) * p.shape.n;
        const auto out = pd.alloc<half_t>(elems, "out");
        pd.alloc<half_t>(elems, "neighbour");
        return store_at(out.addr(out.size()));
      });
  // A store into the declared vector-load slack of an output whose end
  // is not 256 B-aligned: the tail is legal to load, never to store.
  const verify::Target slack = seeded(
      "broken.slack_store", one_cta(32), [](verify::ProbeDevice& pd,
                                            const verify::Probe& p) {
        const auto out = pd.alloc<half_t>(
            static_cast<std::size_t>(p.shape.m) * p.shape.n - 1, "out",
            kDenseTailSlack);
        return store_at(out.addr(out.size()));
      });
  // A barrier under a partial lane mask.
  const verify::Target barrier =
      seeded("broken.barrier", one_cta(32),
             [](verify::ProbeDevice&, const verify::Probe&) {
               return [](gpusim::Cta& cta) {
                 cta.warp(0).bar_sync(0x0000FFFFu);
               };
             });
  // Two warps storing overlapping shared-memory bytes in one epoch.
  const verify::Target race =
      seeded("broken.smem_race", one_cta(64, 1024),
             [](verify::ProbeDevice&, const verify::Probe&) {
               return [](gpusim::Cta& cta) {
                 gpusim::Lanes<std::uint32_t> w0{}, w1{};
                 for (int l = 0; l < 32; ++l) {
                   w0[static_cast<std::size_t>(l)] = 4u * l;
                   w1[static_cast<std::size_t>(l)] = 64u + 4u * l;
                 }
                 gpusim::Lanes<std::int32_t> data{};
                 cta.warp(0).sts(w0, data, 0xFFFFFFFFu);
                 cta.warp(1).sts(w1, data, 0xFFFFFFFFu);
               };
             });

  const struct {
    const verify::Target& target;
    const char* hazard;
  } cases[] = {{overrun, "global_use_after_free"},
               {slack, "global_oob"},
               {barrier, "divergent_barrier"},
               {race, "waw_race"}};
  for (const auto& c : cases) {
    const Verdict v = verify::verify_target(c.target, {cls}, hw).front();
    ASSERT_EQ(v.kind, VerdictKind::kRefuted) << c.target.name;
    EXPECT_TRUE(cls.contains(v.counterexample))
        << c.target.name << ": " << v.counterexample.str();
    EXPECT_NE(v.site.find("probe"), std::string::npos) << v.site;
    EXPECT_NE(v.detail.find(c.hazard), std::string::npos)
        << c.target.name << ": " << v.detail;
  }
}

}  // namespace
}  // namespace vsparse
