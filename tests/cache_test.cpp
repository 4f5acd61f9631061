// Unit + property tests for the sector-granular cache model.
#include "vsparse/gpusim/cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "vsparse/common/rng.hpp"

namespace vsparse::gpusim {
namespace {

// A 2-way cache with 2 sets: 4 lines of 128 B, sectors of 32 B.
SectorCache tiny_cache() { return SectorCache(512, 128, 32, 2); }

TEST(SectorCache, Geometry) {
  SectorCache c(128 << 10, 128, 32, 4);
  EXPECT_EQ(c.num_sets(), 256);
  EXPECT_EQ(c.ways(), 4);
  SectorCache t = tiny_cache();
  EXPECT_EQ(t.num_sets(), 2);
}

TEST(SectorCache, ColdMissThenHit) {
  SectorCache c = tiny_cache();
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(0));
}

TEST(SectorCache, SectorGranularFill) {
  // Touching sector 0 of a line does NOT fill its sibling sectors.
  SectorCache c = tiny_cache();
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(32));   // same line, different sector: still a miss
  EXPECT_FALSE(c.access(64));
  EXPECT_FALSE(c.access(96));
  EXPECT_TRUE(c.access(0));     // all four sectors now resident
  EXPECT_TRUE(c.access(32));
  EXPECT_TRUE(c.access(64));
  EXPECT_TRUE(c.access(96));
}

TEST(SectorCache, LruEviction) {
  SectorCache c = tiny_cache();  // 2 sets x 2 ways; set = (addr/128) % 2
  // Three distinct lines mapping to set 0: line addrs 0, 256, 512.
  EXPECT_FALSE(c.access(0));
  EXPECT_FALSE(c.access(256));
  EXPECT_TRUE(c.access(0));     // touch line 0 so line 256 becomes LRU
  EXPECT_FALSE(c.access(512));  // evicts line 256
  EXPECT_TRUE(c.access(0));     // line 0 survived
  EXPECT_FALSE(c.access(256));  // line 256 was evicted
}

TEST(SectorCache, SetsAreIndependent) {
  SectorCache c = tiny_cache();
  EXPECT_FALSE(c.access(0));     // set 0
  EXPECT_FALSE(c.access(128));   // set 1
  EXPECT_FALSE(c.access(256));   // set 0, second way
  EXPECT_FALSE(c.access(384));   // set 1, second way
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(128));
}

TEST(SectorCache, InvalidateSector) {
  SectorCache c = tiny_cache();
  c.access(0);
  c.access(32);
  c.invalidate_line(0, 0b1);  // sector 0 of line 0
  EXPECT_FALSE(c.access(0));   // invalidated
  EXPECT_TRUE(c.access(32));   // sibling sector untouched
}

TEST(SectorCache, InvalidateLastSectorFreesLine) {
  SectorCache c = tiny_cache();
  c.access(0);
  c.invalidate_line(0, 0b1);  // sector 0 of line 0
  // Line should be reusable without evicting another way: fill both
  // ways of set 0 and verify both stay resident.
  EXPECT_FALSE(c.access(256));
  EXPECT_FALSE(c.access(512));
  EXPECT_TRUE(c.access(256));
  EXPECT_TRUE(c.access(512));
}

TEST(SectorCache, Flush) {
  SectorCache c = tiny_cache();
  c.access(0);
  c.flush();
  EXPECT_FALSE(c.access(0));
}

TEST(SectorCache, RejectsBadGeometry) {
  EXPECT_THROW(SectorCache(100, 128, 32, 4), CheckError);   // capacity % ways
  EXPECT_THROW(SectorCache(512, 96, 32, 2), CheckError);    // non-pow2 line
}

// Property: a working set that fits within one set's ways never misses
// after warmup, regardless of access order.
TEST(SectorCacheProperty, FittingWorkingSetAlwaysHits) {
  Rng rng(42);
  SectorCache c(8 << 10, 128, 32, 4);  // 16 sets x 4 ways
  // Four lines all mapping to set 3.
  std::vector<std::uint64_t> sectors;
  for (int line = 0; line < 4; ++line) {
    for (int s = 0; s < 4; ++s) {
      sectors.push_back((3 + 16 * static_cast<std::uint64_t>(line)) * 128 +
                        static_cast<std::uint64_t>(s) * 32);
    }
  }
  for (std::uint64_t s : sectors) c.access(s);  // warmup
  for (int i = 0; i < 10000; ++i) {
    const auto pick = sectors[rng.uniform_u64(sectors.size())];
    EXPECT_TRUE(c.access(pick)) << "iteration " << i;
  }
}

// Property: streaming a working set far larger than capacity misses on
// every first touch of each sector.
TEST(SectorCacheProperty, StreamingMissesEachNewSector) {
  SectorCache c(4 << 10, 128, 32, 4);
  int misses = 0;
  const int sectors = 4096;
  for (int i = 0; i < sectors; ++i) {
    if (!c.access(static_cast<std::uint64_t>(i) * 32)) ++misses;
  }
  EXPECT_EQ(misses, sectors);
}

// Property: hits never exceed accesses and a second identical pass over
// a fitting working set is all hits (LRU keeps it resident).
TEST(SectorCacheProperty, SecondPassOverFittingSetHits) {
  SectorCache c(64 << 10, 128, 32, 4);
  const int n = (32 << 10) / 32;  // half capacity worth of sectors
  for (int i = 0; i < n; ++i) c.access(static_cast<std::uint64_t>(i) * 32);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(c.access(static_cast<std::uint64_t>(i) * 32)) << i;
  }
}

}  // namespace
}  // namespace vsparse::gpusim
