// Static launch verifier tests: the interval domain, the exact span
// overlap primitive, shape-class corner enumeration, the full-registry
// zero-refutation sweep on every architecture preset, seeded-broken
// contracts that must be refuted with a concrete counterexample, the
// certificate store round-trip, and the cert-gated dispatch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/arch.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/verify/certs.hpp"
#include "vsparse/gpusim/verify/interval.hpp"
#include "vsparse/gpusim/verify/span_set.hpp"
#include "vsparse/gpusim/verify/verifier.hpp"
#include "vsparse/kernels/contracts.hpp"
#include "vsparse/kernels/dispatch.hpp"
#include "vsparse/kernels/registry.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse {
namespace {

using verify::CertEntry;
using verify::CertStore;
using verify::Ival;
using verify::ShapeClass;
using verify::ShapeCorner;
using verify::SpanRef;
using verify::Verdict;
using verify::VerdictKind;

// ---- interval domain --------------------------------------------------

TEST(Ival, ArithmeticIsMonotoneAndExactOnPoints) {
  const Ival a(2, 5);
  const Ival b(-1, 3);
  EXPECT_EQ((a + b).lo, 1);
  EXPECT_EQ((a + b).hi, 8);
  EXPECT_EQ((a - b).lo, -1);
  EXPECT_EQ((a - b).hi, 6);
  EXPECT_EQ((a * b).lo, -5);
  EXPECT_EQ((a * b).hi, 15);
  const Ival p(7);
  EXPECT_TRUE(p.is_point());
  EXPECT_EQ((p * p).lo, 49);
  EXPECT_TRUE(a.contains(5));
  EXPECT_FALSE(a.contains(6));
  EXPECT_EQ(a.hull(b).lo, -1);
  EXPECT_EQ(a.hull(b).hi, 5);
}

TEST(Ival, SaturatesInsteadOfWrapping) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  const Ival huge(big - 1, big);
  EXPECT_EQ((huge + huge).hi, big);      // no wrap to negative
  EXPECT_EQ((huge * Ival(2)).hi, big);
  EXPECT_EQ((Ival(-big, -big + 1) - huge).lo,
            std::numeric_limits<std::int64_t>::min());
}

// ---- exact span overlap ----------------------------------------------

TEST(SpanOverlap, InterleavedStridesDoNotCollide) {
  // Two warps writing alternating 2-byte elements: bases 0 and 2,
  // stride 4.  A hull test would report a collision; the exact test
  // must not.
  const std::uint64_t base_a[] = {0};
  const std::uint64_t base_b[] = {2};
  const SpanRef a{base_a, 1, 32, 4, 2, 0xFFFFFFFFu};
  const SpanRef b{base_b, 1, 32, 4, 2, 0xFFFFFFFFu};
  EXPECT_FALSE(verify::spans_overlap(a, b));

  // Widen the access to 3 bytes and lanes of `a` now reach into `b`.
  const SpanRef a3{base_a, 1, 32, 4, 3, 0xFFFFFFFFu};
  EXPECT_TRUE(verify::spans_overlap(a3, b));
}

TEST(SpanOverlap, MaskAndSegmentsRespected) {
  const std::uint64_t base_a[] = {0, 64};
  const std::uint64_t base_b[] = {64};
  // 2 segments of 16 lanes x 4 bytes; only segment 0 of `a` active.
  const SpanRef a_seg0{base_a, 2, 16, 4, 4, 0x0000FFFFu};
  const SpanRef b{base_b, 1, 16, 4, 4, 0x0000FFFFu};
  EXPECT_FALSE(verify::spans_overlap(a_seg0, b));
  // Activate segment 1 (lanes 16..31) and it lands on b's bytes.
  const SpanRef a_both{base_a, 2, 16, 4, 4, 0xFFFFFFFFu};
  EXPECT_TRUE(verify::spans_overlap(a_both, b));
  // Empty mask never overlaps anything.
  const SpanRef empty{base_a, 2, 16, 4, 4, 0};
  EXPECT_FALSE(verify::spans_overlap(empty, b));
}

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

// ---- the shipped registry is proved everywhere ------------------------

TEST(Verifier, EveryRegisteredKernelHasAContract) {
  for (const kernels::KernelDesc& desc : kernels::kernel_registry()) {
    EXPECT_NE(desc.contract, nullptr) << desc.name;
  }
  EXPECT_FALSE(verify::extra_contracts().empty());
  for (const verify::ExtraContract& extra : verify::extra_contracts()) {
    EXPECT_NE(extra.contract, nullptr) << extra.name;
  }
}

TEST(Verifier, FullRegistryProvedOverBuiltinClassesOnEveryPreset) {
  const std::vector<ShapeClass> classes = verify::builtin_shape_classes();
  ASSERT_FALSE(classes.empty());
  int proved = 0;
  for (const gpusim::ArchPreset& preset : gpusim::arch_presets()) {
    const gpusim::DeviceConfig hw = preset.make();
    for (const kernels::KernelDesc& desc : kernels::kernel_registry()) {
      for (const ShapeClass& cls : classes) {
        const Verdict v = verify::verify_kernel(desc.contract, cls, hw);
        EXPECT_NE(v.kind, VerdictKind::kRefuted)
            << desc.name << " over " << cls.name << " on " << preset.name
            << ": " << v.detail << " at " << v.site << " (counterexample "
            << v.counterexample.str() << ")";
        if (v.kind == VerdictKind::kProved) ++proved;
      }
    }
  }
  EXPECT_GT(proved, 0);
}

// eligible() and the verifier must agree on a seeded shape corpus:
// a dispatchable shape is never refuted (the shipped kernels are safe
// on every shape they accept), and the proof at an ineligible shape is
// by precondition rejection, never by running the kernel body.
TEST(Verifier, EligibleAgreesWithVerdictsOnSeededCorpus) {
  Rng rng(0xC0FFEEu);
  const gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  const int dims[] = {16, 32, 64, 128, 192, 256};
  const int vs[] = {1, 2, 4, 8};
  for (int i = 0; i < 40; ++i) {
    ShapeCorner s;
    s.m = dims[rng.uniform_int(0, 5)];
    s.k = dims[rng.uniform_int(0, 5)];
    s.n = dims[rng.uniform_int(0, 5)];
    s.v = vs[rng.uniform_int(0, 3)];
    s.density = 0.1 + 0.2 * rng.uniform_int(0, 4);
    const ShapeClass cls = ShapeClass::singleton("corpus", s);
    const kernels::DispatchShape ds{s.m, s.k, s.n, s.v, s.density};
    for (const kernels::KernelDesc& desc : kernels::kernel_registry()) {
      const Verdict v = verify::verify_kernel(desc.contract, cls, hw);
      EXPECT_NE(v.kind, VerdictKind::kRefuted)
          << desc.name << " on " << s.str() << ": " << v.detail;
      if (desc.eligible(ds) && v.kind == VerdictKind::kProved) {
        EXPECT_LT(v.corners_rejected, v.corners_checked)
            << desc.name << " rejected the eligible shape " << s.str();
      }
    }
  }
}

// ---- seeded-broken contracts must be refuted --------------------------

// A store one element past the end of its buffer: classic missing
// `-1` on the tail extent.
void broken_bounds_contract(verify::CtaModel& m, const ShapeCorner& s,
                            const gpusim::DeviceConfig&) {
  m.launch(1, 0);
  const std::int64_t bytes = std::int64_t{2} * s.m * s.n;
  const int out = m.gbuf("c", bytes);
  // Last row writeback with the row index off by one.
  m.stg1(out, Ival(std::int64_t{2} * s.m * s.n - 64 + 2), 2, 2, 0xFFFFFFFFu,
         "broken.writeback");
  m.finish();
}

// A CTA-wide barrier after one warp took a divergent early exit.
void broken_barrier_contract(verify::CtaModel& m, const ShapeCorner&,
                             const gpusim::DeviceConfig&) {
  m.launch(2, 256);
  m.skip_rest(0);
  m.sync();
  m.finish();
}

// Two warps storing to the same shared-memory bytes in one epoch.
void broken_race_contract(verify::CtaModel& m, const ShapeCorner&,
                          const gpusim::DeviceConfig&) {
  m.launch(2, 1024);
  m.sts(0, {0}, 32, 4, 4, 0xFFFFFFFFu, "broken.sts.w0");
  m.sts(1, {64}, 32, 4, 4, 0xFFFFFFFFu, "broken.sts.w1");  // lanes collide
  m.finish();
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

  const Verdict bounds = verify::verify_kernel(broken_bounds_contract, cls, hw);
  ASSERT_EQ(bounds.kind, VerdictKind::kRefuted);
  EXPECT_EQ(bounds.site, "broken.writeback");
  EXPECT_TRUE(cls.contains(bounds.counterexample))
      << bounds.counterexample.str();
  EXPECT_FALSE(bounds.detail.empty());

  const Verdict barrier =
      verify::verify_kernel(broken_barrier_contract, cls, hw);
  ASSERT_EQ(barrier.kind, VerdictKind::kRefuted);
  EXPECT_TRUE(cls.contains(barrier.counterexample));

  const Verdict race = verify::verify_kernel(broken_race_contract, cls, hw);
  ASSERT_EQ(race.kind, VerdictKind::kRefuted);
  EXPECT_TRUE(cls.contains(race.counterexample));
  EXPECT_NE(race.detail.find("broken.sts"), std::string::npos)
      << race.detail;
}

// ---- certificate store ------------------------------------------------

CertEntry make_entry(const char* kernel, const char* arch,
                     const ShapeClass& cls, VerdictKind verdict) {
  CertEntry e;
  e.kernel = kernel;
  e.arch = arch;
  e.cls = cls;
  e.verdict = verdict;
  e.corners_checked = 8;
  if (verdict == VerdictKind::kRefuted) {
    e.counterexample = {cls.m.lo, cls.k.lo, cls.n.lo, cls.v, cls.d_lo};
    e.site = "test.site";
    e.detail = "seeded refutation";
  }
  return e;
}

ShapeClass test_class(const char* name, int v = 4) {
  ShapeClass cls;
  cls.name = name;
  cls.v = v;
  cls.m = {64, 256, 64};
  cls.k = {64, 256, 64};
  cls.n = {64, 256, 64};
  cls.d_lo = 0.0;
  cls.d_hi = 1.0;
  return cls;
}

TEST(CertStore, RoundTripsThroughJsonAndPrefersRefutedOnLookup) {
  CertStore store;
  store.put(make_entry("spmm_octet", "volta-v100", test_class("wide"),
                       VerdictKind::kProved));
  // A narrower refuted class overlapping the proved one: lookup must
  // surface the refutation (worst verdict wins).
  ShapeClass narrow = test_class("narrow");
  narrow.m = {64, 64, 64};
  store.put(make_entry("spmm_octet", "volta-v100", narrow,
                       VerdictKind::kRefuted));
  store.put(make_entry("spmm_octet", "turing-t4", test_class("wide"),
                       VerdictKind::kProved));

  const CertStore loaded = CertStore::from_json(store.to_json());
  EXPECT_EQ(loaded.size(), 3u);

  const CertEntry* hit =
      loaded.lookup("spmm_octet", "volta-v100", {64, 64, 64, 4, 0.5});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->verdict, VerdictKind::kRefuted);
  EXPECT_EQ(hit->cls.name, "narrow");
  EXPECT_EQ(hit->counterexample.m, 64);

  // Outside the narrow class only the proved cert covers.
  const CertEntry* proved =
      loaded.lookup("spmm_octet", "volta-v100", {128, 64, 64, 4, 0.5});
  ASSERT_NE(proved, nullptr);
  EXPECT_EQ(proved->verdict, VerdictKind::kProved);

  // Uncovered kernel/arch/shape miss.
  EXPECT_EQ(loaded.lookup("sddmm_octet", "volta-v100", {64, 64, 64, 4, 0.5}),
            nullptr);
  EXPECT_EQ(loaded.lookup("spmm_octet", "ampere-a100", {64, 64, 64, 4, 0.5}),
            nullptr);
  EXPECT_EQ(loaded.lookup("spmm_octet", "volta-v100", {64, 64, 64, 1, 0.5}),
            nullptr);
}

TEST(CertStore, MalformedAndOversizedBlobsRaise) {
  EXPECT_THROW(CertStore::from_json("{"), vsparse::Error);
  EXPECT_THROW(CertStore::from_json("[]"), vsparse::Error);
  EXPECT_THROW(CertStore::from_json("{\"entries\": []}"), vsparse::Error);
  EXPECT_THROW(CertStore::from_json("{\"version\": \"vsparse-static-v0\", "
                                    "\"entries\": []}"),
               vsparse::Error);
  const std::string oversized(verify::kMaxCertStoreBytes + 1, ' ');
  EXPECT_THROW(CertStore::from_json(oversized), vsparse::Error);
  // Trailing garbage after the object.
  EXPECT_THROW(
      CertStore::from_json("{\"version\": \"vsparse-static-v1\", "
                           "\"entries\": []} x"),
      vsparse::Error);
}

// ---- cert-gated dispatch ----------------------------------------------

gpusim::DeviceConfig small_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 128 << 20;
  cfg.num_sms = 4;
  return cfg;
}

/// A store refuting `kernel` on volta-v100 for every shape of vector
/// width `v` (the singleton-free wide class).
CertStore refute_kernel(const char* kernel, int v) {
  CertStore store;
  store.put(make_entry(kernel, "volta-v100", test_class("gate", v),
                       VerdictKind::kRefuted));
  return store;
}

TEST(CertGate, AutoDispatchDivertsAwayFromRefutedKernel) {
  Rng rng(11);
  gpusim::Device dev(small_config());
  const Cvs a = make_cvs(64, 64, 4, 0.5, rng);
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  DenseMatrix<half_t> c(64, 64);
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dc = to_device(dev, c);

  // Unconstrained auto picks octet for V=4.
  const auto baseline = kernels::spmm(dev, da, db, dc);
  EXPECT_NE(baseline.config.profile.name.find("octet"), std::string::npos);

  // With spmm_octet refuted, auto must divert to another proved rung
  // instead of failing.
  const CertStore store = refute_kernel("spmm_octet", 4);
  const auto diverted = kernels::spmm(dev, da, db, dc, {.certs = &store});
  EXPECT_EQ(diverted.config.profile.name.find("octet"), std::string::npos)
      << diverted.config.profile.name;
}

TEST(CertGate, ExplicitlyRequestedRefutedKernelRaisesWithCounterexample) {
  Rng rng(12);
  gpusim::Device dev(small_config());
  const Cvs a = make_cvs(64, 64, 4, 0.5, rng);
  DenseMatrix<half_t> b(64, 64);
  b.fill_random_int(rng);
  DenseMatrix<half_t> c(64, 64);
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dc = to_device(dev, c);

  const CertStore store = refute_kernel("spmm_octet", 4);
  try {
    kernels::spmm(dev, da, db, dc,
                  {.algorithm = kernels::SpmmAlgorithm::kOctet,
                   .certs = &store});
    FAIL() << "refuted explicit dispatch did not raise";
  } catch (const vsparse::Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadDispatch);
    EXPECT_NE(std::string(e.what()).find("64"), std::string::npos)
        << "counterexample shape missing from: " << e.what();
  }

  // A proved cert for the same pair changes nothing.
  CertStore proved;
  proved.put(make_entry("spmm_octet", "volta-v100", test_class("gate", 4),
                        VerdictKind::kProved));
  const auto run = kernels::spmm(dev, da, db, dc,
                                 {.algorithm = kernels::SpmmAlgorithm::kOctet,
                                  .certs = &proved});
  EXPECT_NE(run.config.profile.name.find("octet"), std::string::npos);
}

TEST(CertGate, SddmmGateMirrorsSpmm) {
  Rng rng(13);
  gpusim::Device dev(small_config());
  DenseMatrix<half_t> a(64, 64);
  a.fill_random_int(rng);
  DenseMatrix<half_t> b(64, 64, Layout::kColMajor);
  b.fill_random_int(rng);
  const Cvs mask = make_cvs_mask(64, 64, 4, 0.5, rng);
  auto da = to_device(dev, a);
  auto db = to_device(dev, b);
  auto dmask = to_device(dev, mask);
  auto out = dev.alloc<half_t>(mask.col_idx.size() *
                               static_cast<std::size_t>(mask.v));

  const CertStore store = refute_kernel("sddmm_octet", 4);
  const auto diverted =
      kernels::sddmm(dev, da, db, dmask, out, {.certs = &store});
  EXPECT_EQ(diverted.config.profile.name.find("octet"), std::string::npos)
      << diverted.config.profile.name;
  EXPECT_THROW(
      kernels::sddmm(dev, da, db, dmask, out,
                     {.algorithm = kernels::SddmmAlgorithm::kOctet,
                      .certs = &store}),
      vsparse::Error);
}

}  // namespace
}  // namespace vsparse
