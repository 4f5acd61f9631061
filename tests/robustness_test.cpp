// Negative-path robustness: malformed .smtx inputs are rejected with
// classified vsparse::Error{kMalformedFormat} (not crashes or silent
// misparses) and the loader guardrails stop hostile headers before
// they size allocations, the dispatch layer rejects shape mismatches
// and unsupported ABFT algorithms with kBadDispatch, worker and caller
// exceptions unwind the threaded engine cleanly with the pool reusable
// afterwards, and the allocator's overflow guards hold with their
// taxonomy codes (kAllocOverflow / kOutOfMemory).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "vsparse/common/macros.hpp"
#include "vsparse/serve/error.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/smtx_io.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/engine/launch.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sim_options.hpp"
#include "vsparse/kernels/dispatch.hpp"

namespace vsparse {
namespace {

/// Runs `fn`, asserting it throws a classified vsparse::Error, and
/// returns the taxonomy code for the caller to match on.
template <class F>
ErrorCode code_of(F&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected vsparse::Error, got: " << e.what();
    return ErrorCode::kNumCodes;
  }
  ADD_FAILURE() << "expected vsparse::Error, got no exception";
  return ErrorCode::kNumCodes;
}

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg;
  cfg.dram_capacity = 256 << 20;
  cfg.num_sms = 8;
  return cfg;
}

// ---- malformed .smtx corpus ------------------------------------------

SmtxPattern parse(const std::string& text) {
  std::istringstream is(text);
  return read_smtx(is);
}

TEST(SmtxMalformed, EmptyStream) {
  EXPECT_EQ(code_of([&] { parse(""); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, TruncatedHeader) {
  EXPECT_EQ(code_of([&] { parse("4, 4\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, MissingRowPtrLine) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, RowPtrWrongLength) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n0 1 2\n0 1\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, RowPtrEndpointsInconsistentWithNnz) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n0 1 1 2 3\n0 1\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, RowPtrNotMonotone) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n0 2 1 2 2\n0 1\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, ColumnOutOfRange) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n0 1 1 2 2\n0 4\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, ColIdxWrongCount) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n0 1 1 2 2\n0\n"); }), ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, NegativeIndexRejected) {
  EXPECT_EQ(code_of([&] { parse("4, 4, 2\n0 1 1 2 2\n0 -1\n"); }), ErrorCode::kMalformedFormat);
}

// Loader guardrails: header fields that would balloon allocations are
// rejected before any container is sized from them.

TEST(SmtxMalformed, HugeExtentsRejectedBeforeAllocation) {
  EXPECT_EQ(code_of([&] { parse("4194305, 4, 0\n"); }),
            ErrorCode::kMalformedFormat);  // rows > kMaxSmtxExtent
  EXPECT_EQ(code_of([&] { parse("4, 2147483647, 0\n"); }),
            ErrorCode::kMalformedFormat);  // cols = INT_MAX
}

TEST(SmtxMalformed, NnzBeyondCapRejected) {
  // 2^26 + 1 nonzeros exceeds kMaxSmtxNnz even though the extents are
  // individually plausible.
  EXPECT_EQ(code_of([&] { parse("100000, 100000, 67108865\n"); }),
            ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, NnzBeyondRowsTimesColsRejected) {
  // The product check runs in 64-bit: 4*4 = 16 < 17, no int overflow
  // escape hatch.
  EXPECT_EQ(code_of([&] { parse("4, 4, 17\n"); }),
            ErrorCode::kMalformedFormat);
}

TEST(SmtxMalformed, RowsTimesVOverflowRejected) {
  // smtx_to_cvs multiplies pattern rows by the vector grain; a rows
  // value that survives the extent cap must still not overflow int
  // after * v.
  SmtxPattern p;
  p.rows = 0x7fffffff / 8 + 1;
  p.cols = 4;
  p.row_ptr.assign(1, 0);  // never reached: the overflow guard fires first
  Rng rng(1);
  EXPECT_EQ(code_of([&] { smtx_to_cvs(p, 8, rng); }),
            ErrorCode::kMalformedFormat);
}

TEST(Smtx, WellFormedRoundTrips) {
  const SmtxPattern p = parse("4, 4, 3\n0 1 1 2 3\n2 0 3\n");
  EXPECT_EQ(p.rows, 4);
  EXPECT_EQ(p.cols, 4);
  std::ostringstream os;
  write_smtx(os, p);
  const SmtxPattern q = parse(os.str());
  EXPECT_EQ(q.row_ptr, p.row_ptr);
  EXPECT_EQ(q.col_idx, p.col_idx);
}

// ---- dispatch-layer rejection ----------------------------------------

TEST(DispatchGuards, SpmmShapeMismatchRejected) {
  Rng rng(3);
  Cvs a = make_cvs(32, 96, 4, 0.5, rng);
  gpusim::Device dev(test_config());
  auto da = to_device(dev, a);
  // B has 64 rows where A has 96 columns.
  auto bad_b = dev.alloc<half_t>(std::size_t{64} * 64);
  DenseDevice<half_t> db{bad_b, 64, 64, 64, Layout::kRowMajor};
  auto cbuf = dev.alloc<half_t>(std::size_t{32} * 64);
  DenseDevice<half_t> dc{cbuf, 32, 64, 64, Layout::kRowMajor};
  EXPECT_THROW(
      kernels::spmm(dev, da, db, dc,
                    {.algorithm = kernels::SpmmAlgorithm::kOctet}),
      CheckError);  // kernel-level shape guard, deliberately un-reclassified
}

TEST(DispatchGuards, AbftSpmmRequiresOctetKernel) {
  Rng rng(4);
  Cvs fine = make_cvs(32, 96, 1, 0.5, rng);  // V = 1: no octet mapping
  gpusim::Device dev(test_config());
  auto da = to_device(dev, fine);
  auto b = dev.alloc<half_t>(std::size_t{96} * 64);
  DenseDevice<half_t> db{b, 96, 64, 64, Layout::kRowMajor};
  auto c = dev.alloc<half_t>(std::size_t{32} * 64);
  DenseDevice<half_t> dc{c, 32, 64, 64, Layout::kRowMajor};
  EXPECT_EQ(code_of([&] {
              kernels::spmm(dev, da, db, dc, {.abft = kernels::AbftOptions{}});
            }),
            ErrorCode::kBadDispatch);

  Cvs octet = make_cvs(32, 96, 4, 0.5, rng);
  auto da4 = to_device(dev, octet);
  EXPECT_EQ(code_of([&] {
              kernels::spmm(dev, da4, db, dc,
                            {.algorithm = kernels::SpmmAlgorithm::kFpuSubwarp,
                             .abft = kernels::AbftOptions{}});
            }),
            ErrorCode::kBadDispatch);
}

// ---- engine unwind + pool reuse --------------------------------------

TEST(EngineUnwind, WorkerAndCallerThrowsLeavePoolReusable) {
  gpusim::Device dev(test_config());
  gpusim::LaunchConfig cfg;
  cfg.grid = 16;
  cfg.cta_threads = 32;
  const gpusim::SimOptions sim{.threads = 8};

  auto expect_clean_launch = [&] {
    gpusim::KernelStats stats =
        gpusim::launch(dev, cfg, [](gpusim::Cta&) {}, sim);
    EXPECT_EQ(stats.ctas_launched, 16u);
  };

  for (int round = 0; round < 2; ++round) {
    // CTA 0 runs on SM 0 — the shard the calling thread executes.
    EXPECT_THROW(gpusim::launch(
                     dev, cfg,
                     [](gpusim::Cta& cta) {
                       if (cta.cta_id() == 0) {
                         throw std::out_of_range("caller-shard cta failed");
                       }
                     },
                     sim),
                 std::out_of_range);
    expect_clean_launch();

    // CTA 13 lands on a worker-thread shard; the exception type must
    // survive the cross-thread hop.
    EXPECT_THROW(gpusim::launch(
                     dev, cfg,
                     [](gpusim::Cta& cta) {
                       if (cta.cta_id() == 13) {
                         throw std::out_of_range("worker-shard cta failed");
                       }
                     },
                     sim),
                 std::out_of_range);
    expect_clean_launch();
  }
}

// ---- allocator guards ------------------------------------------------

TEST(AllocGuards, ElementCountTimesSizeOverflowRejected) {
  gpusim::Device dev(test_config());
  EXPECT_EQ(code_of([&] { dev.alloc<double>(SIZE_MAX / 4); }),
            ErrorCode::kAllocOverflow);
}

TEST(AllocGuards, BeyondCapacityRejected) {
  gpusim::Device dev(test_config());
  const std::size_t cap = dev.config().dram_capacity;
  EXPECT_EQ(code_of([&] { dev.alloc<std::uint8_t>(cap + 1); }),
            ErrorCode::kOutOfMemory);
  // Near-SIZE_MAX requests must be rejected, not wrap in the
  // alignment arithmetic.
  EXPECT_EQ(code_of([&] { dev.alloc<std::uint8_t>(SIZE_MAX - 16); }),
            ErrorCode::kOutOfMemory);
  // The device stays usable after rejected requests.
  auto ok = dev.alloc<std::uint8_t>(1024);
  EXPECT_EQ(ok.size(), 1024u);
}

}  // namespace
}  // namespace vsparse
