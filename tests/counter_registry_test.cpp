// Counter-registry acceptance tests: every KernelStats counter is in
// the registry exactly once (distinct storage, unique stable name),
// and merge, equality, JSON export, and the pretty-printer are all
// derived from the same table — so the historical text dump is
// reproduced byte for byte and a counter can never silently miss an
// exporter.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>

#include "vsparse/gpusim/stats.hpp"
#include "vsparse/gpusim/trace/counters.hpp"

namespace vsparse::gpusim {
namespace {

/// Count occurrences of `needle` in `hay`.
int occurrences(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

TEST(CounterRegistry, EveryFieldCoveredExactlyOnce) {
  // Bump each registry accessor once; if two entries aliased the same
  // field (or one missed), the flat uint64 view would not be all-ones.
  KernelStats s{};
  for (const CounterDef& def : counter_registry()) {
    counter_ref(s, def) += 1;
  }
  std::uint64_t words[kNumCounters];
  static_assert(sizeof(words) == sizeof(KernelStats));
  std::memcpy(words, &s, sizeof(words));
  for (int i = 0; i < kNumCounters; ++i) {
    EXPECT_EQ(words[i], 1u) << "KernelStats word " << i
                            << " not covered exactly once by the registry";
  }
}

TEST(CounterRegistry, NamesAreUniqueStableKeys) {
  std::set<std::string> names;
  for (const CounterDef& def : counter_registry()) {
    EXPECT_TRUE(names.insert(def.name).second) << "duplicate " << def.name;
    EXPECT_NE(def.desc[0], '\0') << def.name << " has no description";
    EXPECT_NE(def.unit[0], '\0') << def.name << " has no unit";
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumCounters));
}

TEST(CounterRegistry, NonSmLocalSetIsExactlyTheL2DramSplit) {
  // The determinism contract excludes exactly four counters at
  // threads > 1: the L2 hit/miss split and the DRAM byte counters.
  std::set<std::string> shifty;
  for (const CounterDef& def : counter_registry()) {
    if (!def.sm_local) shifty.insert(def.name);
  }
  const std::set<std::string> want = {"l2_sector_hits", "l2_sector_misses",
                                      "dram_read_bytes", "dram_write_bytes"};
  EXPECT_EQ(shifty, want);
}

/// A stats block with a distinct value in every counter.
KernelStats sequential_stats(std::uint64_t base) {
  KernelStats s{};
  std::uint64_t v = base;
  for (const CounterDef& def : counter_registry()) {
    counter_ref(s, def) = v++;
  }
  return s;
}

TEST(CounterRegistry, AccumulateEqualityAndDiffAreRegistryDriven) {
  const KernelStats a = sequential_stats(1);
  const KernelStats b = sequential_stats(1000);

  KernelStats sum = a;
  sum += b;  // KernelStats::operator+= forwards to counters_accumulate
  for (const CounterDef& def : counter_registry()) {
    EXPECT_EQ(counter_value(sum, def),
              counter_value(a, def) + counter_value(b, def))
        << def.name;
  }

  EXPECT_TRUE(counters_equal(a, a));
  EXPECT_FALSE(counters_equal(a, b));
}

TEST(CounterRegistry, SmLocalEqualityIgnoresOnlyTheL2DramSplit) {
  const KernelStats a = sequential_stats(1);
  KernelStats b = a;
  b.l2_sector_hits += 5;
  b.l2_sector_misses -= 5;
  b.dram_read_bytes += 32;
  b.dram_write_bytes += 32;
  EXPECT_TRUE(counters_sm_local_equal(a, b));
  EXPECT_FALSE(counters_equal(a, b));
  EXPECT_TRUE(a.sm_local_equal(b));  // the method forwards here

  b.l1_sector_hits += 1;  // any SM-local counter breaks both
  EXPECT_FALSE(counters_sm_local_equal(a, b));
}

TEST(CounterRegistry, PrettyPrintReproducesHistoricalDump) {
  KernelStats s{};
  s.op(Op::kHmma) = 10;
  s.op(Op::kLdg) = 3;
  s.ldg16 = 1;
  s.ldg32 = 2;
  s.ldg64 = 3;
  s.ldg128 = 4;
  s.global_load_requests = 2;
  s.global_load_sectors = 4;  // sectors/req = 2, exact in double
  s.global_store_requests = 5;
  s.global_store_sectors = 6;
  s.l1_sector_hits = 7;
  s.l1_sector_misses = 8;
  s.l2_sector_hits = 9;
  s.l2_sector_misses = 10;
  s.dram_read_bytes = 11;
  s.dram_write_bytes = 12;
  s.smem_load_requests = 13;
  s.smem_store_requests = 14;
  s.smem_load_bytes = 999;   // hidden: merged/exported, never printed
  s.smem_store_bytes = 998;  // hidden
  s.smem_wavefronts = 15;
  s.ctas_launched = 16;
  s.warps_launched = 17;

  const std::string want =
      "instructions: HMMA=10 LDG=3\n"
      "ldg widths: 16b=1 32b=2 64b=3 128b=4\n"
      "global: load_req=2 load_sectors=4 store_req=5 store_sectors=6 "
      "sectors/req=2\n"
      "L1: hits=7 misses=8  L2: hits=9 misses=10  DRAM rd=11B wr=12B\n"
      "smem: ld_req=13 st_req=14 wavefronts=15\n"
      "launch: ctas=16 warps=17";
  EXPECT_EQ(s.to_string(), want);

  // The faults group appears only once a fault actually fired, so
  // fault-free dumps stay byte-identical to the pre-fault output.
  s.faults_injected = 1;
  s.faults_masked = 2;
  EXPECT_EQ(s.to_string(), want + "\nfaults: injected=1 masked=2 detected=0");
}

TEST(CounterRegistry, JsonContainsEveryCounterAndDerivedExactlyOnce) {
  const KernelStats s = sequential_stats(1);
  std::ostringstream os;
  counters_json(os, s);
  const std::string json = os.str();
  for (const CounterDef& def : counter_registry()) {
    const std::string key = std::string("\"") + def.name + "\": ";
    EXPECT_EQ(occurrences(json, key), 1) << def.name;
    // The value is the counter, verbatim.
    const std::size_t pos = json.find(key);
    ASSERT_NE(pos, std::string::npos);
    EXPECT_EQ(json.compare(pos + key.size(),
                           std::to_string(counter_value(s, def)).size(),
                           std::to_string(counter_value(s, def))),
              0)
        << def.name;
  }
  EXPECT_EQ(occurrences(json, "\"derived\""), 1);
  for (const DerivedDef& def : derived_registry()) {
    EXPECT_EQ(occurrences(json, std::string("\"") + def.name + "\": "), 1)
        << def.name;
  }
}

TEST(CounterRegistry, DerivedMetricsMatchTheirMethods) {
  KernelStats s{};
  s.op(Op::kHmma) = 3;
  s.op(Op::kHfma) = 4;
  s.op(Op::kImad) = 5;
  s.l1_sector_misses = 2;
  s.global_load_requests = 4;
  s.global_load_sectors = 10;
  s.smem_load_requests = 8;

  for (const DerivedDef& def : derived_registry()) {
    // Exactly one evaluator per derived metric.
    EXPECT_NE(def.ival == nullptr, def.fval == nullptr) << def.name;
  }
  const auto value_of = [&](const char* name) {
    for (const DerivedDef& def : derived_registry()) {
      if (std::string(def.name) == name) {
        return def.ival != nullptr ? static_cast<double>(def.ival(s))
                                   : def.fval(s);
      }
    }
    ADD_FAILURE() << "derived metric " << name << " not in the registry";
    return -1.0;
  };
  EXPECT_EQ(value_of("total_instructions"),
            static_cast<double>(s.total_instructions()));
  EXPECT_EQ(value_of("math_instructions"), 7.0);
  EXPECT_EQ(value_of("bytes_l2_to_l1"), 64.0);
  EXPECT_EQ(value_of("sectors_per_request"), 2.5);
  EXPECT_EQ(value_of("smem_to_global_load_ratio"), 2.0);
}

}  // namespace
}  // namespace vsparse::gpusim
