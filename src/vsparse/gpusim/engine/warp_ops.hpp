// Warp memory/shuffle operation bodies — kept header-only so they
// inline into kernel loops.  Every operation performs the real data
// movement *and* records the hardware events (requests, 32 B sectors,
// L1 hits, bank conflicts) that the paper's profiling sections
// analyze.  Every op writes only its SM's private state: counters land
// in the SM's stats block, and each L1-missed load line and each store
// line is appended to the SM's L2Log instead of probing the shared L2.
// The launch replays those logs in CTA order after every epoch
// (engine/launch.hpp), which credits the L2 hits, misses and DRAM bytes
// to the same SM.  Sectors are 32 B: Device construction rejects any
// other size, so the `& ~31` / `>> 5` sector arithmetic below is exact.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "vsparse/gpusim/engine/cta.hpp"

namespace vsparse::gpusim {

namespace detail {

/// Expand a segmented-affine span descriptor into per-lane addresses —
/// the divergent form — for the span ops' fallback path.  Lanes beyond
/// segs*width keep their zero-initialized value (never in the mask).
template <class A>
inline void expand_span(const A* seg_base, int segs, int width, std::uint32_t stride,
                        Lanes<A>& out) {
  for (int seg = 0; seg < segs; ++seg) {
    for (int t = 0; t < width; ++t) {
      const int lane = seg * width + t;
      if (lane >= 32) return;
      out[static_cast<std::size_t>(lane)] =
          seg_base[seg] + static_cast<A>(t) * static_cast<A>(stride);
    }
  }
}

/// Active-lane mask of one `width`-lane segment (relative lane bits).
inline std::uint32_t span_seg_mask(std::uint32_t mask, int seg, int width) {
  return width >= 32 ? mask : (mask >> (seg * width)) & ((1u << width) - 1u);
}

/// Full-warp mask of a segs x width span (every describable lane on).
inline std::uint32_t span_full_mask(int segs, int width) {
  const int lanes = segs * width;
  return lanes >= 32 ? kFullMask : (1u << lanes) - 1u;
}

/// Collects the unique 32 B sectors touched by one warp memory request.
/// Naturally-aligned accesses of size <= 32 B touch exactly one sector
/// per lane, so at most 32 entries.
class SectorSet {
 public:
  void insert(std::uint64_t sector) {
    for (int i = 0; i < n_; ++i) {
      if (sectors_[i] == sector) return;
    }
    sectors_[n_++] = sector;
  }
  int size() const { return n_; }
  std::uint64_t operator[](int i) const { return sectors_[i]; }

 private:
  std::uint64_t sectors_[32];
  int n_ = 0;
};

}  // namespace detail

template <class V>
void Warp::ldg(const AddrLanes& addr, Lanes<V>& dst, std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  KernelStats& s = stats();
  count(Op::kLdg);
  if constexpr (sizeof(V) == 2) {
    ++s.ldg16;
  } else if constexpr (sizeof(V) == 4) {
    ++s.ldg32;
  } else if constexpr (sizeof(V) == 8) {
    ++s.ldg64;
  } else {
    ++s.ldg128;
  }
  if (mask == 0) return;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_global_load(warp_id_, addr, mask, sizeof(V));
  }

  Device& dev = device();
  FaultState* faults = sm().faults();  // null ⇒ fault-free fast path
  detail::SectorSet sectors;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint64_t a = addr[static_cast<std::size_t>(lane)];
    VSPARSE_DCHECK(a % sizeof(V) == 0);  // natural alignment, as CUDA requires
    std::memcpy(&dst[static_cast<std::size_t>(lane)],
                dev.translate(a, sizeof(V)), sizeof(V));
    if (faults != nullptr) [[unlikely]] {
      faults->on_global_read(a, &dst[static_cast<std::size_t>(lane)],
                             sizeof(V), s);
    }
    sectors.insert(a & ~std::uint64_t{31});
  }
  s.global_load_requests += 1;
  s.global_load_sectors += static_cast<std::uint64_t>(sectors.size());
  SectorCache& l1 = sm().l1();
  L2Log& l2 = sm().l2_log();
  for (int i = 0; i < sectors.size(); ++i) {
    if (l1.access(sectors[i])) {
      ++s.l1_sector_hits;
    } else {
      ++s.l1_sector_misses;
      l2.sector(sectors[i], /*store=*/false);
    }
  }
}

template <class V>
void Warp::stg(const AddrLanes& addr, const Lanes<V>& src,
               std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  KernelStats& s = stats();
  count(Op::kStg);
  if (mask == 0) return;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_global_store(warp_id_, addr, mask, sizeof(V));
  }

  Device& dev = device();
  detail::SectorSet sectors;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint64_t a = addr[static_cast<std::size_t>(lane)];
    VSPARSE_DCHECK(a % sizeof(V) == 0);
    std::memcpy(dev.translate(a, sizeof(V)),
                &src[static_cast<std::size_t>(lane)], sizeof(V));
    sectors.insert(a & ~std::uint64_t{31});
  }
  s.global_store_requests += 1;
  s.global_store_sectors += static_cast<std::uint64_t>(sectors.size());
  SectorCache& l1 = sm().l1();
  L2Log& l2 = sm().l2_log();
  for (int i = 0; i < sectors.size(); ++i) {
    l1.invalidate_sector(sectors[i]);  // keep L1 coherent with the store
    l2.sector(sectors[i], /*store=*/true);
  }
}

template <class V>
void Warp::lds(const Lanes<std::uint32_t>& off, Lanes<V>& dst,
               std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  KernelStats& s = stats();
  count(Op::kLds);
  if (mask == 0) return;
  // Sanitize before executing: an OOB lds must be *reported* before the
  // always-on bounds check below unwinds the launch.
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_smem_load(warp_id_, off, mask, sizeof(V));
  }
  s.smem_load_requests += 1;
  FaultState* faults = sm().faults();  // null ⇒ fault-free fast path

  // Bank-conflict model: lanes whose first 4 B word maps to the same
  // bank but a *different* word serialize; same word broadcasts.
  int bank_word[32];
  int bank_count[32] = {};
  int lanes_active = 0;
  std::byte* smem = cta_->smem();
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint32_t o = off[static_cast<std::size_t>(lane)];
    VSPARSE_CHECK_MSG(o + sizeof(V) <= cta_->smem_bytes(),
                      "smem OOB load at offset " << o);
    std::memcpy(&dst[static_cast<std::size_t>(lane)], smem + o, sizeof(V));
    if (faults != nullptr) [[unlikely]] {
      faults->on_smem_read(o, &dst[static_cast<std::size_t>(lane)], sizeof(V),
                           s);
    }
    const int word = static_cast<int>(o / 4);
    const int bank = word % 32;
    // Count distinct words per bank (approximate: treat each lane's
    // first word as its bank access).
    bool dup = false;
    for (int l2i = 0; l2i < lanes_active; ++l2i) {
      if (bank_word[l2i] == word) {
        dup = true;
        break;
      }
    }
    bank_word[lanes_active++] = word;
    if (!dup) ++bank_count[bank];
  }
  int degree = 1;
  for (int b = 0; b < 32; ++b) degree = std::max(degree, bank_count[b]);
  const int width_factor =
      static_cast<int>(std::max<std::size_t>(1, sizeof(V) / 8));
  s.smem_wavefronts +=
      static_cast<std::uint64_t>(degree) * static_cast<std::uint64_t>(width_factor);
  s.smem_load_bytes += static_cast<std::uint64_t>(lanes_active) * sizeof(V);
}

template <class V>
void Warp::sts(const Lanes<std::uint32_t>& off, const Lanes<V>& src,
               std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  KernelStats& s = stats();
  count(Op::kSts);
  if (mask == 0) return;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_smem_store(warp_id_, off, mask, sizeof(V));
  }
  s.smem_store_requests += 1;

  std::byte* smem = cta_->smem();
  int lanes_active = 0;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint32_t o = off[static_cast<std::size_t>(lane)];
    VSPARSE_CHECK_MSG(o + sizeof(V) <= cta_->smem_bytes(),
                      "smem OOB store at offset " << o);
    std::memcpy(smem + o, &src[static_cast<std::size_t>(lane)], sizeof(V));
    ++lanes_active;
  }
  const int width_factor =
      static_cast<int>(std::max<std::size_t>(1, sizeof(V) / 8));
  s.smem_wavefronts += static_cast<std::uint64_t>(width_factor);
  s.smem_store_bytes += static_cast<std::uint64_t>(lanes_active) * sizeof(V);
}

// ---- span (warp-granular) forms --------------------------------------
//
// Each span op is the batched twin of the per-lane op above it: the
// kernel states the address pattern (segments of an affine sequence)
// and the engine services every segment with one hull translation /
// bounds check and one monotone sector or closed-form bank walk.
// Counter equivalence with the per-lane forms is argued case-by-case
// in DESIGN.md §2h; when a sanitizer or fault plan is attached the
// descriptor is expanded into lane arrays and the per-lane op runs, so
// the diagnostic surfaces observe the exact per-lane sequence.

template <class V>
void Warp::ldg_span(const std::uint64_t* seg_base, int segs, int width,
                    std::uint32_t stride, Lanes<V>& dst, std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  if (sm().sanitizer() != nullptr || sm().faults() != nullptr) [[unlikely]] {
    AddrLanes addr{};
    detail::expand_span(seg_base, segs, width, stride, addr);
    ldg(addr, dst, mask);
    return;
  }
  KernelStats& s = stats();
  count(Op::kLdg);
  if constexpr (sizeof(V) == 2) {
    ++s.ldg16;
  } else if constexpr (sizeof(V) == 4) {
    ++s.ldg32;
  } else if constexpr (sizeof(V) == 8) {
    ++s.ldg64;
  } else {
    ++s.ldg128;
  }
  if (mask == 0) return;

  Device& dev = device();
  SectorCache& l1 = sm().l1();
  L2Log& l2 = sm().l2_log();
  std::uint64_t nsec = 0;
  // Unique sectors arrive in per-lane first-touch order, ascending
  // within a segment — so consecutive touches of the same cache line
  // can be merged into ONE L1 probe and ONE L2 log entry (a sector
  // mask instead of up to 4 tag lookups).  SetArray::access_line
  // documents why the merged probe is state- and counter-identical to
  // the per-sector sequence; merging only coalesces *adjacent* touches,
  // so interleavings with other lines are preserved exactly.  L1 and L2
  // share the device's line size, a power-of-two multiple of the 32 B
  // sector, so every touch batches.
  const std::uint64_t line_bytes =
      static_cast<std::uint64_t>(l1.line_bytes());
  std::uint64_t cur_line = ~std::uint64_t{0};
  std::uint32_t cur_bits = 0;
  const auto flush = [&] {
    if (cur_bits == 0) return;
    const std::uint32_t hits = l1.access_line(cur_line, cur_bits);
    const int nb = std::popcount(cur_bits);
    const int nh = std::popcount(hits);
    s.l1_sector_hits += static_cast<std::uint64_t>(nh);
    s.l1_sector_misses += static_cast<std::uint64_t>(nb - nh);
    if (const std::uint32_t miss = cur_bits & ~hits; miss != 0) {
      l2.line(cur_line, miss, /*store=*/false);
    }
    cur_bits = 0;
  };
  const auto touch = [&](std::uint64_t sec) {
    ++nsec;
    const std::uint64_t line = sec & ~(line_bytes - 1);
    if (line != cur_line) {
      flush();
      cur_line = line;
    }
    cur_bits |= 1u << ((sec - line) >> 5);
  };
  // Fused fast path: when every active segment is a contiguous lane run
  // with stride <= 32, each segment's sector footprint is exactly the
  // closed interval [first, last] step 32 (consecutive lane addresses
  // advance < one sector, so none is skipped and all are distinct).
  // Cross-segment dedup then reduces to interval-membership tests
  // against the previously emitted segments, so sectors can be fed to
  // the caches inline — no SectorSet, no second pass — while keeping
  // the per-lane first-touch order (segment-major, ascending).
  bool fused = stride <= 32;
  for (int seg = 0; fused && seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const std::uint32_t run = seg_mask >> std::countr_zero(seg_mask);
    fused = (run & (run + 1)) == 0;
  }
  detail::SectorSet sectors;
  std::uint64_t ivl_first[32];
  std::uint64_t ivl_last[32];
  int nivl = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const int lo = std::countr_zero(seg_mask);
    const int hi = 31 - std::countl_zero(seg_mask);
    const std::uint64_t base = seg_base[seg];
    VSPARSE_DCHECK(base % sizeof(V) == 0);
    VSPARSE_DCHECK(hi == lo || stride % sizeof(V) == 0);
    // One bounds check for the whole segment: the arena is one
    // contiguous [0, used) region, so the hull [first lane's start,
    // last lane's end) is in bounds iff every active lane is.
    const std::byte* hull =
        dev.translate(base + static_cast<std::uint64_t>(lo) * stride,
                      static_cast<std::size_t>(hi - lo) * stride + sizeof(V));
    if (fused) {
      if (stride == sizeof(V)) {
        std::memcpy(&dst[static_cast<std::size_t>(seg * width + lo)], hull,
                    static_cast<std::size_t>(hi - lo + 1) * sizeof(V));
      } else {
        for (int t = lo; t <= hi; ++t) {
          std::memcpy(&dst[static_cast<std::size_t>(seg * width + t)],
                      hull + static_cast<std::size_t>(t - lo) * stride,
                      sizeof(V));
        }
      }
      const std::uint64_t first =
          (base + static_cast<std::uint64_t>(lo) * stride) & ~std::uint64_t{31};
      const std::uint64_t last =
          (base + static_cast<std::uint64_t>(hi) * stride) & ~std::uint64_t{31};
      for (std::uint64_t sec = first; sec <= last; sec += 32) {
        bool seen = false;
        for (int i = 0; i < nivl; ++i) {
          if (sec >= ivl_first[i] && sec <= ivl_last[i]) {
            seen = true;
            break;
          }
        }
        if (!seen) touch(sec);
      }
      ivl_first[nivl] = first;
      ivl_last[nivl] = last;
      ++nivl;
      continue;
    }
    // General path: monotone per-segment walk with compare-with-previous
    // dedup (equal sectors are adjacent because stride >= 0 makes the
    // sequence monotone); the SectorSet handles cross-segment repeats in
    // the same first-touch order as the per-lane loop.
    const std::uint32_t crun = seg_mask >> lo;
    std::uint64_t prev = ~std::uint64_t{0};
    if ((crun & (crun + 1)) == 0) {
      if (stride == sizeof(V)) {
        std::memcpy(&dst[static_cast<std::size_t>(seg * width + lo)], hull,
                    static_cast<std::size_t>(hi - lo + 1) * sizeof(V));
      } else {
        for (int t = lo; t <= hi; ++t) {
          std::memcpy(&dst[static_cast<std::size_t>(seg * width + t)],
                      hull + static_cast<std::size_t>(t - lo) * stride,
                      sizeof(V));
        }
      }
      for (int t = lo; t <= hi; ++t) {
        const std::uint64_t sec =
            (base + static_cast<std::uint64_t>(t) * stride) &
            ~std::uint64_t{31};
        if (sec != prev) {
          sectors.insert(sec);
          prev = sec;
        }
      }
      continue;
    }
    for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
      const int t = std::countr_zero(m);
      std::memcpy(&dst[static_cast<std::size_t>(seg * width + t)],
                  hull + static_cast<std::size_t>(t - lo) * stride, sizeof(V));
      const std::uint64_t sec =
          (base + static_cast<std::uint64_t>(t) * stride) & ~std::uint64_t{31};
      if (sec != prev) {
        sectors.insert(sec);
        prev = sec;
      }
    }
  }
  for (int i = 0; i < sectors.size(); ++i) touch(sectors[i]);
  flush();
  s.global_load_requests += 1;
  s.global_load_sectors += nsec;
}

template <class V>
void Warp::ldg_span(std::uint64_t base, std::uint32_t stride, Lanes<V>& dst,
                    std::uint32_t mask) {
  ldg_span(&base, 1, 32, stride, dst, mask);
}

template <class V>
void Warp::stg_span(const std::uint64_t* seg_base, int segs, int width,
                    std::uint32_t stride, const Lanes<V>& src,
                    std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  if (sm().sanitizer() != nullptr) [[unlikely]] {
    AddrLanes addr{};
    detail::expand_span(seg_base, segs, width, stride, addr);
    stg(addr, src, mask);
    return;
  }
  KernelStats& s = stats();
  count(Op::kStg);
  if (mask == 0) return;

  Device& dev = device();
  SectorCache& l1 = sm().l1();
  L2Log& l2 = sm().l2_log();
  std::uint64_t nsec = 0;
  // Same line-batched touch as ldg_span (see the argument there): one
  // L1 invalidate + one L2 log entry per line instead of per sector.
  const std::uint64_t line_bytes =
      static_cast<std::uint64_t>(l1.line_bytes());
  std::uint64_t cur_line = ~std::uint64_t{0};
  std::uint32_t cur_bits = 0;
  const auto flush = [&] {
    if (cur_bits == 0) return;
    l1.invalidate_line(cur_line, cur_bits);  // keep L1 coherent
    l2.line(cur_line, cur_bits, /*store=*/true);
    cur_bits = 0;
  };
  const auto touch = [&](std::uint64_t sec) {
    ++nsec;
    const std::uint64_t line = sec & ~(line_bytes - 1);
    if (line != cur_line) {
      flush();
      cur_line = line;
    }
    cur_bits |= 1u << ((sec - line) >> 5);
  };
  // Same fused interval-dedup fast path as ldg_span (see the argument
  // there): contiguous runs with stride <= 32 emit their sectors inline
  // in per-lane first-touch order.
  bool fused = stride <= 32;
  for (int seg = 0; fused && seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const std::uint32_t run = seg_mask >> std::countr_zero(seg_mask);
    fused = (run & (run + 1)) == 0;
  }
  detail::SectorSet sectors;
  std::uint64_t ivl_first[32];
  std::uint64_t ivl_last[32];
  int nivl = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    const int lo = std::countr_zero(seg_mask);
    const int hi = 31 - std::countl_zero(seg_mask);
    const std::uint64_t base = seg_base[seg];
    VSPARSE_DCHECK(base % sizeof(V) == 0);
    VSPARSE_DCHECK(hi == lo || stride % sizeof(V) == 0);
    std::byte* hull =
        dev.translate(base + static_cast<std::uint64_t>(lo) * stride,
                      static_cast<std::size_t>(hi - lo) * stride + sizeof(V));
    if (fused) {
      if (stride == sizeof(V)) {
        std::memcpy(hull, &src[static_cast<std::size_t>(seg * width + lo)],
                    static_cast<std::size_t>(hi - lo + 1) * sizeof(V));
      } else {
        for (int t = lo; t <= hi; ++t) {
          std::memcpy(hull + static_cast<std::size_t>(t - lo) * stride,
                      &src[static_cast<std::size_t>(seg * width + t)],
                      sizeof(V));
        }
      }
      const std::uint64_t first =
          (base + static_cast<std::uint64_t>(lo) * stride) & ~std::uint64_t{31};
      const std::uint64_t last =
          (base + static_cast<std::uint64_t>(hi) * stride) & ~std::uint64_t{31};
      for (std::uint64_t sec = first; sec <= last; sec += 32) {
        bool seen = false;
        for (int i = 0; i < nivl; ++i) {
          if (sec >= ivl_first[i] && sec <= ivl_last[i]) {
            seen = true;
            break;
          }
        }
        if (!seen) touch(sec);
      }
      ivl_first[nivl] = first;
      ivl_last[nivl] = last;
      ++nivl;
      continue;
    }
    const std::uint32_t crun = seg_mask >> lo;
    std::uint64_t prev = ~std::uint64_t{0};
    if ((crun & (crun + 1)) == 0) {
      if (stride == sizeof(V)) {
        std::memcpy(hull, &src[static_cast<std::size_t>(seg * width + lo)],
                    static_cast<std::size_t>(hi - lo + 1) * sizeof(V));
      } else {
        for (int t = lo; t <= hi; ++t) {
          std::memcpy(hull + static_cast<std::size_t>(t - lo) * stride,
                      &src[static_cast<std::size_t>(seg * width + t)],
                      sizeof(V));
        }
      }
      for (int t = lo; t <= hi; ++t) {
        const std::uint64_t sec =
            (base + static_cast<std::uint64_t>(t) * stride) &
            ~std::uint64_t{31};
        if (sec != prev) {
          sectors.insert(sec);
          prev = sec;
        }
      }
      continue;
    }
    for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
      const int t = std::countr_zero(m);
      std::memcpy(hull + static_cast<std::size_t>(t - lo) * stride,
                  &src[static_cast<std::size_t>(seg * width + t)], sizeof(V));
      const std::uint64_t sec =
          (base + static_cast<std::uint64_t>(t) * stride) & ~std::uint64_t{31};
      if (sec != prev) {
        sectors.insert(sec);
        prev = sec;
      }
    }
  }
  for (int i = 0; i < sectors.size(); ++i) touch(sectors[i]);
  flush();
  s.global_store_requests += 1;
  s.global_store_sectors += nsec;
}

template <class V>
void Warp::stg_span(std::uint64_t base, std::uint32_t stride,
                    const Lanes<V>& src, std::uint32_t mask) {
  stg_span(&base, 1, 32, stride, src, mask);
}

template <class V>
void Warp::lds_span(const std::uint32_t* seg_off, int segs, int width,
                    std::uint32_t stride, Lanes<V>& dst, std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  // Racecheck span fast path: a sanitized span that the admission hook
  // proves in-bounds and overlap-free (via the exact span-overlap
  // primitive) runs the span memory path below; otherwise it
  // expands onto the per-lane op for exact per-byte reporting.  A
  // fault plan always diverts (the fault surface is per-lane).
  bool divert = sm().faults() != nullptr;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    divert = divert || !san->on_smem_load_span(warp_id_, seg_off, segs, width,
                                               stride, mask, sizeof(V));
  }
  if (!divert && mask != 0) {
    // Hull bounds pre-scan.  On OOB, divert so the per-lane path
    // reports the exact offending lane offset (and throws identically).
    for (int seg = 0; seg < segs; ++seg) {
      const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
      if (seg_mask == 0) continue;
      const int hi = 31 - std::countl_zero(seg_mask);
      if (static_cast<std::uint64_t>(seg_off[seg]) +
              static_cast<std::uint64_t>(hi) * stride + sizeof(V) >
          cta_->smem_bytes()) {
        divert = true;
        break;
      }
    }
  }
  if (divert) [[unlikely]] {
    Lanes<std::uint32_t> off{};
    detail::expand_span(seg_off, segs, width, stride, off);
    lds(off, dst, mask);
    return;
  }
  KernelStats& s = stats();
  count(Op::kLds);
  if (mask == 0) return;
  s.smem_load_requests += 1;

  std::byte* smem = cta_->smem();
  int lanes_active = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    lanes_active += std::popcount(seg_mask);
    const std::uint32_t o0 = seg_off[seg];
    const int lo = std::countr_zero(seg_mask);
    const std::uint32_t run = seg_mask >> lo;
    if ((run & (run + 1)) == 0 && stride == sizeof(V)) {
      const int hi = 31 - std::countl_zero(seg_mask);
      std::memcpy(&dst[static_cast<std::size_t>(seg * width + lo)],
                  smem + o0 + static_cast<std::size_t>(lo) * stride,
                  static_cast<std::size_t>(hi - lo + 1) * sizeof(V));
      continue;
    }
    if (stride == 0) {
      // Uniform segment: one shared-memory read replicated to every
      // active lane (same bytes the per-lane loop would copy).
      V val;
      std::memcpy(&val, smem + o0, sizeof(V));
      for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
        dst[static_cast<std::size_t>(seg * width + std::countr_zero(m))] = val;
      }
      continue;
    }
    for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
      const int t = std::countr_zero(m);
      std::memcpy(&dst[static_cast<std::size_t>(seg * width + t)],
                  smem + o0 + static_cast<std::size_t>(t) * stride, sizeof(V));
    }
  }

  // Bank-conflict degree.  Closed form for the full-mask affine /
  // repeated-segment patterns and for uniform (stride 0) segments
  // (DESIGN.md §2h); otherwise replay the per-lane scan on the expanded
  // words.
  int degree = 1;
  bool closed_form = mask == detail::span_full_mask(segs, width) &&
                     stride % 4 == 0 && seg_off[0] % 4 == 0;
  for (int seg = 1; closed_form && seg < segs; ++seg) {
    closed_form = seg_off[seg] == seg_off[0];
  }
  if (closed_form) {
    const int wstep = static_cast<int>(stride / 4);
    if (wstep != 0) {
      // Words within a segment are strictly monotone (no duplicates);
      // lanes t and t' share a bank iff (t - t') * wstep ≡ 0 (mod 32),
      // i.e. every 32/gcd(wstep,32) lanes.  Repeated segments re-read
      // the first segment's words and count as broadcasts (duplicates).
      const int period = 32 / std::gcd(wstep, 32);
      degree = (width + period - 1) / period;
    }
  } else if (stride == 0) {
    // Uniform segments: every lane of segment s reads seg_off[s]'s
    // word, so the per-lane scan reduces to counting, per bank, the
    // distinct words among the active segments (first lane of a
    // segment is the only possible non-duplicate).
    std::uint32_t words[32];
    int bank_count[32] = {};
    int nw = 0;
    for (int seg = 0; seg < segs; ++seg) {
      if (detail::span_seg_mask(mask, seg, width) == 0) continue;
      const std::uint32_t word = seg_off[seg] / 4;
      bool dup = false;
      for (int i = 0; i < nw; ++i) {
        if (words[i] == word) {
          dup = true;
          break;
        }
      }
      words[nw++] = word;
      if (!dup) {
        const int d = ++bank_count[word % 32];
        degree = std::max(degree, d);
      }
    }
  } else {
    int bank_word[32];
    int bank_count[32] = {};
    int seen = 0;
    for (int seg = 0; seg < segs; ++seg) {
      const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
      for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
        const int t = std::countr_zero(m);
        const int word =
            static_cast<int>((seg_off[seg] + static_cast<std::uint32_t>(t) *
                                                 stride) /
                             4);
        bool dup = false;
        for (int i = 0; i < seen; ++i) {
          if (bank_word[i] == word) {
            dup = true;
            break;
          }
        }
        bank_word[seen++] = word;
        if (!dup) ++bank_count[word % 32];
      }
    }
    for (int b = 0; b < 32; ++b) degree = std::max(degree, bank_count[b]);
  }
  const int width_factor =
      static_cast<int>(std::max<std::size_t>(1, sizeof(V) / 8));
  s.smem_wavefronts += static_cast<std::uint64_t>(degree) *
                       static_cast<std::uint64_t>(width_factor);
  s.smem_load_bytes += static_cast<std::uint64_t>(lanes_active) * sizeof(V);
}

template <class V>
void Warp::lds_span(std::uint32_t off, std::uint32_t stride, Lanes<V>& dst,
                    std::uint32_t mask) {
  lds_span(&off, 1, 32, stride, dst, mask);
}

template <class V>
void Warp::sts_span(const std::uint32_t* seg_off, int segs, int width,
                    std::uint32_t stride, const Lanes<V>& src,
                    std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  // Same admission contract as lds_span above.
  bool divert = false;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    divert = !san->on_smem_store_span(warp_id_, seg_off, segs, width, stride,
                                      mask, sizeof(V));
  }
  if (!divert && mask != 0) {
    for (int seg = 0; seg < segs; ++seg) {
      const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
      if (seg_mask == 0) continue;
      const int hi = 31 - std::countl_zero(seg_mask);
      if (static_cast<std::uint64_t>(seg_off[seg]) +
              static_cast<std::uint64_t>(hi) * stride + sizeof(V) >
          cta_->smem_bytes()) {
        divert = true;
        break;
      }
    }
  }
  if (divert) [[unlikely]] {
    Lanes<std::uint32_t> off{};
    detail::expand_span(seg_off, segs, width, stride, off);
    sts(off, src, mask);
    return;
  }
  KernelStats& s = stats();
  count(Op::kSts);
  if (mask == 0) return;
  s.smem_store_requests += 1;

  std::byte* smem = cta_->smem();
  int lanes_active = 0;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t seg_mask = detail::span_seg_mask(mask, seg, width);
    if (seg_mask == 0) continue;
    lanes_active += std::popcount(seg_mask);
    const std::uint32_t o0 = seg_off[seg];
    const int lo = std::countr_zero(seg_mask);
    const std::uint32_t run = seg_mask >> lo;
    if ((run & (run + 1)) == 0 && stride == sizeof(V)) {
      const int hi = 31 - std::countl_zero(seg_mask);
      std::memcpy(smem + o0 + static_cast<std::size_t>(lo) * stride,
                  &src[static_cast<std::size_t>(seg * width + lo)],
                  static_cast<std::size_t>(hi - lo + 1) * sizeof(V));
      continue;
    }
    for (std::uint32_t m = seg_mask; m != 0; m &= m - 1) {
      const int t = std::countr_zero(m);
      std::memcpy(smem + o0 + static_cast<std::size_t>(t) * stride,
                  &src[static_cast<std::size_t>(seg * width + t)], sizeof(V));
    }
  }
  const int width_factor =
      static_cast<int>(std::max<std::size_t>(1, sizeof(V) / 8));
  s.smem_wavefronts += static_cast<std::uint64_t>(width_factor);
  s.smem_store_bytes += static_cast<std::uint64_t>(lanes_active) * sizeof(V);
}

template <class V>
void Warp::sts_span(std::uint32_t off, std::uint32_t stride,
                    const Lanes<V>& src, std::uint32_t mask) {
  sts_span(&off, 1, 32, stride, src, mask);
}

template <class T>
void Warp::shfl(Lanes<T>& dst, const Lanes<T>& src, const Lanes<int>& srclane,
                std::uint32_t mask) {
  count(Op::kShfl);
  Lanes<T> tmp;
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) {
      tmp[static_cast<std::size_t>(lane)] = dst[static_cast<std::size_t>(lane)];
      continue;
    }
    const int sl = srclane[static_cast<std::size_t>(lane)];
    VSPARSE_DCHECK(sl >= 0 && sl < 32);
    tmp[static_cast<std::size_t>(lane)] = src[static_cast<std::size_t>(sl)];
  }
  dst = tmp;
}

template <class T>
void Warp::shfl_xor(Lanes<T>& dst, const Lanes<T>& src, int xor_mask,
                    std::uint32_t mask) {
  Lanes<int> srclane;
  for (int lane = 0; lane < 32; ++lane) {
    srclane[static_cast<std::size_t>(lane)] = lane ^ xor_mask;
  }
  shfl(dst, src, srclane, mask);
}

}  // namespace vsparse::gpusim
