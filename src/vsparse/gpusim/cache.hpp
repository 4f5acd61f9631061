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
//     SM's CTAs, through the warp ops' one line batcher
//     (engine/warp_ops.hpp);
//   * the device-wide L2 is never probed from the CTA hot path.  SMs
//     log their L2 accesses and the launching thread replays the logs
//     in global CTA order under the Device's L2 mutex
//     (engine/launch.hpp), so every L2 outcome is independent of the
//     host thread count.
// Both levels are driven a line at a time (access_line /
// invalidate_line); the per-sector access() is the reference form the
// batched probe is defined against.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/common/math.hpp"

namespace vsparse::gpusim {

/// Single-owner cache: an SM's private L1, or the Device's L2 (driven
/// only by the launch replay, under the Device's L2 mutex).  Not
/// thread-safe.  One LRU clock per cache: LRU only ever compares the
/// stamps of one set, so any clock that is monotone in access order
/// picks the same victims.
class SectorCache {
 public:
  /// capacity/line/sector in bytes; capacity must be a multiple of
  /// (ways * line_bytes) and line_bytes a power-of-two multiple of
  /// sector_bytes.
  SectorCache(std::size_t capacity_bytes, int line_bytes, int sector_bytes,
              int ways);

  /// Access one sector.  `sector_addr` must be sector-aligned.
  /// Returns true on hit; on miss the sector is filled (evicting the
  /// LRU line of the set if the line was not resident).
  bool access(std::uint64_t sector_addr) {
    VSPARSE_DCHECK(sector_addr % static_cast<std::uint64_t>(sector_bytes_) ==
                   0);
    return access_line(sector_addr & ~line_mask(),
                       sector_bit(sector_addr)) != 0;
  }

  /// Batched form: access every sector in `sector_bits` (bit i = sector
  /// i) of the line at `line_base` (a line-aligned byte address),
  /// advancing the LRU clock by the popcount.  Returns the subset of
  /// bits that hit.  Equivalent to issuing the sectors one at a time in
  /// ascending order: all accesses target the same line, so the
  /// per-sector walk would find the line resident after the first
  /// touch, accumulate the same valid bits, and leave lru at the final
  /// tick — exactly what one probe does.  Kept inline: this is the
  /// single hottest call in the simulator (every line run of every
  /// warp memory op walks it).
  std::uint32_t access_line(std::uint64_t line_base,
                            std::uint32_t sector_bits) {
    tick_ += static_cast<std::uint64_t>(std::popcount(sector_bits));
    const std::uint64_t line_addr = line_base >> line_shift_;
    const std::size_t base =
        set_index(line_addr) * static_cast<std::size_t>(ways_);
    const int w = find_way(line_addr, base);
    if (w >= 0) {
      lru_[base + w] = tick_;
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
    lru_[victim] = tick_;
    return 0;
  }

  /// Batched invalidate (store coherence) of every sector in
  /// `sector_bits` of the line at `line_base`, if resident.
  void invalidate_line(std::uint64_t line_base, std::uint32_t sector_bits) {
    const std::uint64_t line_addr = line_base >> line_shift_;
    const std::size_t base =
        set_index(line_addr) * static_cast<std::size_t>(ways_);
    if (const int w = find_way(line_addr, base); w >= 0) {
      valid_[base + w] &= ~sector_bits;
      if (valid_[base + w] == 0) tags_[base + w] = kInvalidTag;
    }
  }

  /// Drop all contents.
  void flush();

  int num_sets() const { return sets_; }
  int ways() const { return ways_; }
  int line_bytes() const { return line_bytes_; }
  int sector_bytes() const { return sector_bytes_; }

 private:
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

  std::uint64_t line_mask() const {
    return static_cast<std::uint64_t>(line_bytes_) - 1;
  }

  /// Bit of `sector_addr`'s sector within its line.
  std::uint32_t sector_bit(std::uint64_t sector_addr) const {
    return 1u << ((sector_addr >> sector_shift_) &
                  static_cast<std::uint64_t>(sectors_per_line_ - 1));
  }

  /// Set index of a line index (XOR-folded hash, divide-free).
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
  std::uint64_t tick_ = 0;        ///< LRU clock
  // sets_ * ways_ entries each, set-major, structure-of-arrays.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> valid_;  ///< bit i = sector i resident
  std::vector<std::uint64_t> lru_;    ///< last-touch tick
};

}  // namespace vsparse::gpusim
