// Concurrency stress for Device's allocation accounting: many host
// threads hammering alloc/free/translate on ONE device — the serving
// scenario where requests are admitted while launches are in flight —
// plus concurrent kernel launches sharing the device.  Asserts the
// counters (used/live/peak/allocation map) stay exact under the race
// and results stay correct; the CI asan job runs this under
// ASan+UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "vsparse/common/rng.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/kernels/dispatch.hpp"

namespace vsparse {
namespace {

gpusim::DeviceConfig test_config() {
  gpusim::DeviceConfig cfg = gpusim::DeviceConfig::volta_v100();
  cfg.dram_capacity = 512u << 20;
  return cfg;
}

TEST(DeviceStress, ConcurrentAllocFreeTranslateKeepsAccountingExact) {
  gpusim::Device dev(test_config());
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  constexpr std::size_t kElems = 1024;  // 4 KiB per allocation

  std::atomic<std::size_t> leaked_bytes{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::size_t kept = 0;
      for (int r = 0; r < kRounds; ++r) {
        auto buf = dev.alloc<std::uint32_t>(kElems);
        // Touch the translated span: the bounds check in translate()
        // reads the bump pointer concurrently with other allocators.
        auto span = buf.host();
        span[0] = static_cast<std::uint32_t>(t * kRounds + r);
        span[kElems - 1] = span[0];
        EXPECT_EQ(span[0], span[kElems - 1]);
        if (r % 4 == 0) {
          kept += kElems * sizeof(std::uint32_t);  // deliberately leak
        } else {
          dev.free(buf);
        }
      }
      leaked_bytes.fetch_add(kept);
    });
  }
  for (auto& w : workers) w.join();

  // Exactly the deliberately-leaked allocations remain live, the peak
  // saw at least that much, and the bump pointer covers every alloc.
  EXPECT_EQ(dev.live_bytes(), leaked_bytes.load());
  EXPECT_GE(dev.peak_bytes(), dev.live_bytes());
  EXPECT_EQ(dev.used_bytes(),
            static_cast<std::size_t>(kThreads) * kRounds * kElems *
                sizeof(std::uint32_t));

  // Double-free detection still works after the storm.
  auto buf = dev.alloc<std::uint32_t>(8);
  dev.free(buf);
  EXPECT_ANY_THROW(dev.free(buf));
}

TEST(DeviceStress, ConcurrentLaunchesWithAllocChurnStayCorrect) {
  gpusim::Device dev(test_config());
  constexpr int kLaunchers = 4;

  // Each launcher runs its own small SpMM on the shared device and
  // checks the result against a serial reference; meanwhile churners
  // allocate and free concurrently.
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < 2; ++t) {
    churners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto buf = dev.alloc<half_t>(2048);
        buf.host()[0] = half_t(1.0f);
        dev.free(buf);
      }
    });
  }

  std::vector<std::thread> launchers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kLaunchers; ++t) {
    launchers.emplace_back([&, t] {
      Rng rng(100 + t);
      Cvs a_host = make_cvs(64, 64, 4, 0.7, rng);
      DenseMatrix<half_t> b_host(64, 64);
      b_host.fill_random_int(rng);
      DenseMatrix<half_t> c_host(64, 64);

      // Reference on a private device.
      gpusim::Device ref_dev(test_config());
      CvsDevice ra = to_device(ref_dev, a_host);
      DenseDevice<half_t> rb = to_device(ref_dev, b_host);
      DenseDevice<half_t> rc = to_device(ref_dev, c_host);
      kernels::spmm(ref_dev, ra, rb, rc, {});

      for (int round = 0; round < 8; ++round) {
        CvsDevice a = to_device(dev, a_host);
        DenseDevice<half_t> b = to_device(dev, b_host);
        DenseDevice<half_t> c = to_device(dev, c_host);
        kernels::spmm(dev, a, b, c, {});
        const auto got = c.buf.host();
        const auto want = rc.buf.host();
        if (got.size() != want.size() ||
            std::memcmp(got.data(), want.data(), got.size_bytes()) != 0) {
          failures.fetch_add(1);
        }
        dev.free(c.buf);
        dev.free(b.buf);
        dev.free(a.values);
        dev.free(a.col_idx);
        dev.free(a.row_ptr);
      }
    });
  }
  for (auto& w : launchers) w.join();
  stop.store(true);
  for (auto& w : churners) w.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dev.live_bytes(), 0u);
  EXPECT_GE(dev.peak_bytes(), 0u);
}

}  // namespace
}  // namespace vsparse
