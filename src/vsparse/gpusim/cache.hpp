// Sector-granular set-associative cache model.
//
// GPU L1/L2 caches tag at 128 B line granularity but fill and count
// misses at 32 B *sector* granularity (§2.1, Jia et al. [11]).  The
// paper's Fig. 5 ("L1$ Missed Sectors") and Fig. 18 ("Bytes L2$->L1$")
// are defined in these units, so the model reproduces exactly that:
// a lookup hits iff the line is resident AND the requested sector has
// been filled; a miss fills only the requested sector (no prefetch of
// sibling sectors).
//
// One class, SectorCache, models both levels and is unsynchronized:
//   * each SM's private L1 is touched only by the thread running that
//     SM's CTAs;
//   * the device-wide L2 is never probed from the CTA hot path.  SMs
//     log their L2 accesses and the launching thread replays the logs
//     in global CTA order under the Device's L2 mutex
//     (engine/launch.hpp), so every L2 outcome is independent of the
//     host thread count.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/common/math.hpp"

namespace vsparse::gpusim {

namespace detail {

/// Geometry plus the tag/sector/LRU state behind SectorCache.  Not
/// synchronized.
class SetArray {
 public:
  /// capacity/line/sector in bytes; capacity must be a multiple of
  /// (ways * line_bytes) and line_bytes a power-of-two multiple of
  /// sector_bytes.
  SetArray(std::size_t capacity_bytes, int line_bytes, int sector_bytes,
           int ways);

  /// Access one sector (sector-aligned address) stamping LRU with
  /// `tick`.  Returns true on hit; on miss the sector is filled
  /// (evicting the LRU line of the set if the line was not resident).
  /// Kept inline: this is the single hottest call in the simulator
  /// (every unique sector of every warp memory op walks it).
  bool access(std::uint64_t sector_addr, std::uint64_t tick) {
    VSPARSE_DCHECK(sector_addr % static_cast<std::uint64_t>(sector_bytes_) ==
                   0);
    return access_line(sector_addr >> line_shift_, sector_bit(sector_addr),
                       tick) != 0;
  }

  /// Invalidate one sector if resident (store coherence).
  void invalidate_sector(std::uint64_t sector_addr) {
    invalidate_line(sector_addr >> line_shift_, sector_bit(sector_addr));
  }

  /// Batched form: access every sector in `sector_bits` (bit i = sector
  /// i of the line at `line_addr`), advancing the LRU clock by the
  /// popcount.  Returns the subset of bits that hit.  Equivalent to
  /// issuing the sectors one at a time in ascending order: all accesses
  /// target the same line, so the per-sector walk would find the line
  /// resident after the first touch, accumulate the same valid bits,
  /// and leave lru at the final tick — exactly what one probe does.
  std::uint32_t access_line(std::uint64_t line_addr,
                            std::uint32_t sector_bits, std::uint64_t tick) {
    const std::size_t base =
        set_index(line_addr) * static_cast<std::size_t>(ways_);
    const int w = find_way(line_addr, base);
    if (w >= 0) {
      lru_[base + w] = tick;
      const std::uint32_t hits = valid_[base + w] & sector_bits;
      valid_[base + w] |= sector_bits;
      return hits;
    }
    std::size_t victim = base;
    for (int i = 1; i < ways_; ++i) {
      if (lru_[base + i] < lru_[victim]) victim = base + i;
    }
    tags_[victim] = line_addr;
    valid_[victim] = sector_bits;
    lru_[victim] = tick;
    return 0;
  }

  /// Batched invalidate of every sector in `sector_bits` of one line.
  void invalidate_line(std::uint64_t line_addr, std::uint32_t sector_bits) {
    const std::size_t base =
        set_index(line_addr) * static_cast<std::size_t>(ways_);
    if (const int w = find_way(line_addr, base); w >= 0) {
      valid_[base + w] &= ~sector_bits;
      if (valid_[base + w] == 0) tags_[base + w] = kInvalidTag;
    }
  }

  /// Drop all contents.
  void flush();

  /// Set index of a line address (XOR-folded hash, divide-free).
  std::size_t set_index(std::uint64_t line_addr) const {
    // XOR-folded set hashing, as GPU caches use: without it, power-of-two
    // strides (e.g. the 512 B row stride of a 256-column half matrix)
    // alias a handful of sets and the effective capacity collapses.
    std::uint64_t h = line_addr;
    h ^= h >> 8;
    h ^= h >> 16;
    // The reduction mod sets_ sits on the hottest path in the simulator,
    // so avoid the hardware divide: a mask when sets_ is a power of two,
    // else a Lemire multiply-reduction (exact for h < 2^32; folded line
    // indices stay far below that for any practical arena, and the rare
    // larger value falls back to the divide).  All three produce the
    // identical h % sets_ value, so set mapping — and every cache
    // counter — is unchanged.
    if (sets_mask_ != 0) return static_cast<std::size_t>(h & sets_mask_);
    if (h <= 0xFFFFFFFFu) [[likely]] {
      const std::uint64_t lowbits = sets_magic_ * h;
      return static_cast<std::size_t>(
          (static_cast<unsigned __int128>(lowbits) *
           static_cast<std::uint64_t>(sets_)) >>
          64);
    }
    return static_cast<std::size_t>(h % static_cast<std::uint64_t>(sets_));
  }

  int num_sets() const { return sets_; }
  int ways() const { return ways_; }
  int line_bytes() const { return line_bytes_; }
  int line_shift() const { return line_shift_; }
  int sector_bytes() const { return sector_bytes_; }

 private:
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  /// Bit of `sector_addr`'s sector within its line.
  std::uint32_t sector_bit(std::uint64_t sector_addr) const {
    return 1u << ((sector_addr >> sector_shift_) &
                  static_cast<std::uint64_t>(sectors_per_line_ - 1));
  }

  /// Way index of `line_addr` within the set whose ways begin at flat
  /// index `base`, or -1.  Tags live in their own dense array so the
  /// scan reads 8 B per way: a 16-way L2 set spans two host cache
  /// lines instead of the six an array-of-structs layout touches.
  int find_way(std::uint64_t line_addr, std::size_t base) const {
    for (int w = 0; w < ways_; ++w) {
      if (tags_[base + w] == line_addr) return w;
    }
    return -1;
  }

  int line_bytes_;
  int sector_bytes_;
  int line_shift_;    ///< log2(line_bytes_)
  int sector_shift_;  ///< log2(sector_bytes_)
  int sectors_per_line_;
  int ways_;
  int sets_;
  std::uint64_t sets_mask_ = 0;   ///< sets_ - 1 when sets_ is a power of two
  std::uint64_t sets_magic_ = 0;  ///< ceil(2^64 / sets_) for the Lemire path
  // sets_ * ways_ entries each, set-major, structure-of-arrays.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> valid_;  ///< bit i = sector i resident
  std::vector<std::uint64_t> lru_;    ///< last-touch tick
};

}  // namespace detail

/// Single-owner cache: an SM's private L1, or the Device's L2 (driven
/// only by the launch replay, under the Device's L2 mutex).  Not
/// thread-safe.  One LRU clock per cache: LRU only ever compares the
/// stamps of one set, so any clock that is monotone in access order
/// picks the same victims.
class SectorCache {
 public:
  SectorCache(std::size_t capacity_bytes, int line_bytes, int sector_bytes,
              int ways)
      : array_(capacity_bytes, line_bytes, sector_bytes, ways) {}

  /// Access one sector.  `sector_addr` must be sector-aligned.
  /// Returns true on hit; on miss the sector is filled (evicting the
  /// LRU line of the set if the line was not resident).
  bool access(std::uint64_t sector_addr) {
    return array_.access(sector_addr, ++tick_);
  }

  /// Invalidate one sector if resident (used for store coherence).
  void invalidate_sector(std::uint64_t sector_addr) {
    array_.invalidate_sector(sector_addr);
  }

  /// Batched line access (see SetArray::access_line): accesses every
  /// sector in `sector_bits` of the line containing `line_base` (a
  /// line-aligned byte address) and returns the hit subset.
  std::uint32_t access_line(std::uint64_t line_base,
                            std::uint32_t sector_bits) {
    tick_ += static_cast<std::uint64_t>(std::popcount(sector_bits));
    return array_.access_line(line_base >> array_.line_shift(), sector_bits,
                              tick_);
  }

  /// Batched line invalidate (store coherence).
  void invalidate_line(std::uint64_t line_base, std::uint32_t sector_bits) {
    array_.invalidate_line(line_base >> array_.line_shift(), sector_bits);
  }

  /// Drop all contents.
  void flush() {
    array_.flush();
    tick_ = 0;
  }

  int num_sets() const { return array_.num_sets(); }
  int ways() const { return array_.ways(); }
  int line_bytes() const { return array_.line_bytes(); }
  int sector_bytes() const { return array_.sector_bytes(); }

 private:
  detail::SetArray array_;
  std::uint64_t tick_ = 0;
};

}  // namespace vsparse::gpusim
