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
//
// Each piece of the memory path exists once, in `detail` below: the
// four global ops share one LineBatcher (the only caller of the L1
// probe and the L2 log), the span ops one run enumeration and run copy,
// ldg_span/stg_span one interval walk, and the smem ops one bank scan
// and hull check.  No helper branches on its caller: direction lives
// only in the LoadLines/StoreLines sinks and each op's run-copy lambda.
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
/// the divergent form — for the span ops' divert path.  Lanes beyond
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

/// The segment loop of all four span ops: calls `fn(addr, lane, n)` for
/// each maximal run of active lanes, in lane order — `n` lanes of one
/// segment starting at warp lane `lane`, the first addressing `addr`
/// and the rest following at `stride`.
template <class A, class F>
inline void for_each_span_run(const A* seg_base, int segs, int width,
                              std::uint32_t stride, std::uint32_t mask,
                              F&& fn) {
  for (int seg = 0; seg < segs; ++seg) {
    std::uint32_t m = span_seg_mask(mask, seg, width);
    while (m != 0) {
      const int t = std::countr_zero(m);
      const int n = std::countr_one(m >> t);
      fn(seg_base[seg] + static_cast<A>(t) * static_cast<A>(stride),
         seg * width + t, n);
      m = t + n >= 32 ? 0u : m & (~0u << (t + n));
    }
  }
}

/// The run copy of all four span ops: value i of `n` moves from
/// `from + i*from_step` to `to + i*to_step`, in order, so a zero
/// `to_step` keeps the last lane's value as the per-lane store loop
/// does.  A dense run is one library memcpy.  Its byte count passes
/// through a volatile so that the compiler cannot bound it: knowing
/// n <= 32, GCC expands the memcpy inline as `rep movs`, whose start-up
/// cost dominates copies this small (it cost perfbench's spmm_dlmc
/// about a fifth of its CTA rate).
template <class V>
inline void copy_run(void* to, std::size_t to_step, const void* from,
                     std::size_t from_step, int n) {
  auto* t = static_cast<std::byte*>(to);
  const auto* f = static_cast<const std::byte*>(from);
  if (to_step == sizeof(V) && from_step == sizeof(V)) {
    const volatile std::size_t bytes = static_cast<std::size_t>(n) * sizeof(V);
    std::memcpy(t, f, bytes);
    return;
  }
  for (int i = 0; i < n; ++i) {
    std::memcpy(t + static_cast<std::size_t>(i) * to_step,
                f + static_cast<std::size_t>(i) * from_step, sizeof(V));
  }
}

/// Collects the unique 32 B sectors touched by one per-lane warp memory
/// request, in first-touch order.  Naturally-aligned accesses of size
/// <= 32 B touch exactly one sector per lane, so at most 32 entries.
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

/// Feeds one global request's unique sectors, in per-lane first-touch
/// order, to the SM's caches: each run of adjacent touches of one line
/// becomes ONE `sink(line_base, sector_bits)` call — one L1 probe or
/// invalidate and one L2 log entry — instead of one per sector.
/// SectorCache::access_line documents why the merged probe is state-
/// and counter-identical to the per-sector sequence; merging only
/// coalesces *adjacent* touches, so interleavings with other lines are
/// preserved exactly.  L1 and L2 share the device's line size, a
/// power-of-two multiple of the 32 B sector, so every touch batches.
template <class Sink>
class LineBatcher {
 public:
  LineBatcher(int line_bytes, Sink sink)
      : line_mask_(static_cast<std::uint64_t>(line_bytes) - 1), sink_(sink) {}

  void touch(std::uint64_t sector) {
    ++sectors_;
    const std::uint64_t line = sector & ~line_mask_;
    if (line != line_) {
      flush();
      line_ = line;
    }
    bits_ |= 1u << ((sector - line) >> 5);
  }

  /// Hand the last run to the sink; returns the sectors touched.
  std::uint64_t finish() {
    flush();
    return sectors_;
  }

 private:
  void flush() {
    if (bits_ != 0) sink_(line_, bits_);
    bits_ = 0;
  }

  std::uint64_t line_mask_;
  Sink sink_;
  std::uint64_t line_ = ~std::uint64_t{0};
  std::uint32_t bits_ = 0;
  std::uint64_t sectors_ = 0;
};

/// Load sink: probe L1, log the missed sectors to L2.
struct LoadLines {
  SectorCache& l1;
  L2Log& l2;
  KernelStats& s;
  void operator()(std::uint64_t line, std::uint32_t sectors) const {
    const std::uint32_t hits = l1.access_line(line, sectors);
    const std::uint32_t miss = sectors & ~hits;
    s.l1_sector_hits += static_cast<std::uint64_t>(std::popcount(hits));
    s.l1_sector_misses += static_cast<std::uint64_t>(std::popcount(miss));
    if (miss != 0) l2.line(line, miss, /*store=*/false);
  }
};

/// Store sink: write through to L2, invalidating L1 to keep it coherent.
struct StoreLines {
  SectorCache& l1;
  L2Log& l2;
  void operator()(std::uint64_t line, std::uint32_t sectors) const {
    l1.invalidate_line(line, sectors);
    l2.line(line, sectors, /*store=*/true);
  }
};

/// The interval walk's precondition: stride <= 32 and every active
/// segment one contiguous lane run.  Consecutive lane addresses then
/// advance less than one sector, so a segment's sector footprint is
/// exactly the closed interval [first, last] step 32: none is skipped
/// and all are distinct.  Every span a shipped kernel issues meets it;
/// a global span that does not runs the per-lane op.
inline bool interval_span(int segs, int width, std::uint32_t stride,
                          std::uint32_t mask) {
  if (stride > 32) return false;
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t m = span_seg_mask(mask, seg, width);
    if (m == 0) continue;
    const std::uint32_t run = m >> std::countr_zero(m);
    if ((run & (run + 1)) != 0) return false;
  }
  return true;
}

/// The sector walk of ldg_span and stg_span, for a span that meets
/// interval_span.  Each segment's run is translated and bounds-checked
/// once, as its hull [first lane's start, last lane's end) — the arena
/// is one contiguous [0, used) region, so the hull is in bounds iff
/// every active lane is — and handed to `copy(hull, lane, n)`.  Its
/// sectors are the interval [first, last]; cross-segment dedup reduces
/// to membership tests against the earlier segments' intervals, so each
/// new sector reaches `lines` inline, in the per-lane first-touch order
/// (segment-major, ascending): no SectorSet, no second pass.
template <class V, class Copy, class Sink>
inline void interval_walk(Device& dev, const std::uint64_t* seg_base,
                          int segs, int width, std::uint32_t stride,
                          std::uint32_t mask, Copy&& copy,
                          LineBatcher<Sink>& lines) {
  std::uint64_t ivl_first[32];
  std::uint64_t ivl_last[32];
  int nivl = 0;
  for_each_span_run(seg_base, segs, width, stride, mask,
                    [&](std::uint64_t addr, int lane, int n) {
    VSPARSE_DCHECK(addr % sizeof(V) == 0);
    VSPARSE_DCHECK(n == 1 || stride % sizeof(V) == 0);
    const std::uint64_t extent = static_cast<std::uint64_t>(n - 1) * stride;
    copy(dev.translate(addr, extent + sizeof(V)), lane, n);
    const std::uint64_t first = addr & ~std::uint64_t{31};
    const std::uint64_t last = (addr + extent) & ~std::uint64_t{31};
    for (std::uint64_t sec = first; sec <= last; sec += 32) {
      bool seen = false;
      for (int i = 0; i < nivl; ++i) {
        if (sec >= ivl_first[i] && sec <= ivl_last[i]) {
          seen = true;
          break;
        }
      }
      if (!seen) lines.touch(sec);
    }
    ivl_first[nivl] = first;
    ivl_last[nivl] = last;
    ++nivl;
  });
}

/// The LDG.{16,32,64,128} counter a global load of V bumps.
template <class V>
inline std::uint64_t& ldg_width_count(KernelStats& s) {
  if constexpr (sizeof(V) == 2) {
    return s.ldg16;
  } else if constexpr (sizeof(V) == 4) {
    return s.ldg32;
  } else if constexpr (sizeof(V) == 8) {
    return s.ldg64;
  } else {
    return s.ldg128;
  }
}

/// Wavefronts per bank-conflict degree of a shared-memory access of V:
/// a 16 B access takes two.
template <class V>
inline constexpr std::uint64_t kSmemWidthFactor =
    std::max<std::size_t>(1, sizeof(V) / 8);

/// Bank-conflict degree of one shared-memory request, fed each active
/// lane's word: lanes whose first 4 B word maps to the same bank but a
/// *different* word serialize; the same word broadcasts.  Counts the
/// distinct words per bank (approximate: each lane's first word stands
/// for its whole access).
class BankScan {
 public:
  void add(std::uint32_t word) {
    for (int i = 0; i < n_; ++i) {
      if (words_[i] == word) return;
    }
    words_[n_++] = word;
    degree_ = std::max(degree_, ++bank_count_[word % 32]);
  }
  int degree() const { return degree_; }

 private:
  std::uint32_t words_[32];
  int bank_count_[32] = {};
  int n_ = 0;
  int degree_ = 1;
};

/// Hull bounds pre-scan of a shared-memory span: true iff every active
/// segment's last lane ends within `smem_bytes` (offsets are unsigned
/// and a segment's first lane is its lowest).  A span that fails
/// diverts, so the per-lane op reports the exact offending lane offset
/// (and throws identically).
template <class V>
inline bool smem_span_fits(const std::uint32_t* seg_off, int segs, int width,
                           std::uint32_t stride, std::uint32_t mask,
                           std::size_t smem_bytes) {
  for (int seg = 0; seg < segs; ++seg) {
    const std::uint32_t m = span_seg_mask(mask, seg, width);
    if (m == 0) continue;
    const int hi = 31 - std::countl_zero(m);
    if (static_cast<std::uint64_t>(seg_off[seg]) +
            static_cast<std::uint64_t>(hi) * stride + sizeof(V) >
        smem_bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

template <class V>
void Warp::ldg(const AddrLanes& addr, Lanes<V>& dst, std::uint32_t mask) {
  static_assert(std::is_trivially_copyable_v<V>);
  static_assert(sizeof(V) == 2 || sizeof(V) == 4 || sizeof(V) == 8 ||
                sizeof(V) == 16);
  KernelStats& s = stats();
  count(Op::kLdg);
  ++detail::ldg_width_count<V>(s);
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
  detail::LineBatcher lines(sm().l1().line_bytes(),
                            detail::LoadLines{sm().l1(), sm().l2_log(), s});
  for (int i = 0; i < sectors.size(); ++i) lines.touch(sectors[i]);
  s.global_load_sectors += lines.finish();
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
  detail::LineBatcher lines(sm().l1().line_bytes(),
                            detail::StoreLines{sm().l1(), sm().l2_log()});
  for (int i = 0; i < sectors.size(); ++i) lines.touch(sectors[i]);
  s.global_store_sectors += lines.finish();
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

  detail::BankScan banks;
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
    banks.add(o / 4);
  }
  s.smem_wavefronts += static_cast<std::uint64_t>(banks.degree()) *
                       detail::kSmemWidthFactor<V>;
  s.smem_load_bytes +=
      static_cast<std::uint64_t>(std::popcount(mask)) * sizeof(V);
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
  for (int lane = 0; lane < 32; ++lane) {
    if (!(mask & (1u << lane))) continue;
    const std::uint32_t o = off[static_cast<std::size_t>(lane)];
    VSPARSE_CHECK_MSG(o + sizeof(V) <= cta_->smem_bytes(),
                      "smem OOB store at offset " << o);
    std::memcpy(smem + o, &src[static_cast<std::size_t>(lane)], sizeof(V));
  }
  s.smem_wavefronts += detail::kSmemWidthFactor<V>;
  s.smem_store_bytes +=
      static_cast<std::uint64_t>(std::popcount(mask)) * sizeof(V);
}

// ---- span (warp-granular) forms --------------------------------------
//
// Each span op is the batched twin of the per-lane op above it: the
// kernel states the address pattern (segments of an affine sequence)
// and the engine services each run of active lanes with one hull
// translation / bounds check and an interval sector walk or closed-form
// bank count; DESIGN.md §2h argues counter equivalence case by case.
// Every other span (a global span that is not one contiguous run per
// segment with stride <= 32 B, an smem span failing its hull check), and
// every span under a sanitizer or fault plan, runs the per-lane op on
// its expanded lanes: its counters equal the reference's by construction
// and the diagnostics observe the exact per-lane access sequence.

template <class V>
void Warp::ldg_span(const std::uint64_t* seg_base, int segs, int width,
                    std::uint32_t stride, Lanes<V>& dst, std::uint32_t mask) {
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  if (sm().sanitizer() != nullptr || sm().faults() != nullptr ||
      !detail::interval_span(segs, width, stride, mask)) [[unlikely]] {
    AddrLanes addr{};
    detail::expand_span(seg_base, segs, width, stride, addr);
    ldg(addr, dst, mask);
    return;
  }
  KernelStats& s = stats();
  count(Op::kLdg);
  ++detail::ldg_width_count<V>(s);
  if (mask == 0) return;

  detail::LineBatcher lines(sm().l1().line_bytes(),
                            detail::LoadLines{sm().l1(), sm().l2_log(), s});
  detail::interval_walk<V>(
      device(), seg_base, segs, width, stride, mask,
      [&](const std::byte* hull, int lane, int n) {
        detail::copy_run<V>(&dst[static_cast<std::size_t>(lane)], sizeof(V),
                            hull, stride, n);
      },
      lines);
  s.global_load_requests += 1;
  s.global_load_sectors += lines.finish();
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
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  if (sm().sanitizer() != nullptr ||
      !detail::interval_span(segs, width, stride, mask)) [[unlikely]] {
    AddrLanes addr{};
    detail::expand_span(seg_base, segs, width, stride, addr);
    stg(addr, src, mask);
    return;
  }
  KernelStats& s = stats();
  count(Op::kStg);
  if (mask == 0) return;

  detail::LineBatcher lines(sm().l1().line_bytes(),
                            detail::StoreLines{sm().l1(), sm().l2_log()});
  detail::interval_walk<V>(
      device(), seg_base, segs, width, stride, mask,
      [&](std::byte* hull, int lane, int n) {
        detail::copy_run<V>(hull, stride, &src[static_cast<std::size_t>(lane)],
                            sizeof(V), n);
      },
      lines);
  s.global_store_requests += 1;
  s.global_store_sectors += lines.finish();
}

template <class V>
void Warp::stg_span(std::uint64_t base, std::uint32_t stride,
                    const Lanes<V>& src, std::uint32_t mask) {
  stg_span(&base, 1, 32, stride, src, mask);
}

template <class V>
void Warp::lds_span(const std::uint32_t* seg_off, int segs, int width,
                    std::uint32_t stride, Lanes<V>& dst, std::uint32_t mask) {
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
  if (divert || !detail::smem_span_fits<V>(seg_off, segs, width, stride, mask,
                                           cta_->smem_bytes())) [[unlikely]] {
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
  std::uint64_t lanes_active = 0;
  detail::for_each_span_run(seg_off, segs, width, stride, mask,
                            [&](std::uint32_t o, int lane, int n) {
    detail::copy_run<V>(&dst[static_cast<std::size_t>(lane)], sizeof(V),
                        smem + o, stride, n);
    lanes_active += static_cast<std::uint64_t>(n);
  });

  // Bank-conflict degree.  Closed form for the full-mask affine /
  // repeated-segment patterns (DESIGN.md §2h); otherwise the per-lane
  // bank scan, which for uniform (stride 0) segments needs only each
  // active segment's one word (the first lane of a segment is its only
  // possible non-duplicate), and else every active lane's word.
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
  } else {
    detail::BankScan banks;
    if (stride == 0) {
      for (int seg = 0; seg < segs; ++seg) {
        if (detail::span_seg_mask(mask, seg, width) != 0) {
          banks.add(seg_off[seg] / 4);
        }
      }
    } else {
      detail::for_each_span_run(seg_off, segs, width, stride, mask,
                                [&](std::uint32_t o, int, int n) {
        for (int i = 0; i < n; ++i) {
          banks.add((o + static_cast<std::uint32_t>(i) * stride) / 4);
        }
      });
    }
    degree = banks.degree();
  }
  s.smem_wavefronts +=
      static_cast<std::uint64_t>(degree) * detail::kSmemWidthFactor<V>;
  s.smem_load_bytes += lanes_active * sizeof(V);
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
  VSPARSE_DCHECK(segs >= 1 && width >= 1 && segs * width <= 32);
  VSPARSE_DCHECK(segs * width >= 32 || (mask >> (segs * width)) == 0);
  // Same admission contract as lds_span above.
  bool divert = false;
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    divert = !san->on_smem_store_span(warp_id_, seg_off, segs, width, stride,
                                      mask, sizeof(V));
  }
  if (divert || !detail::smem_span_fits<V>(seg_off, segs, width, stride, mask,
                                           cta_->smem_bytes())) [[unlikely]] {
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
  std::uint64_t lanes_active = 0;
  detail::for_each_span_run(seg_off, segs, width, stride, mask,
                            [&](std::uint32_t o, int lane, int n) {
    detail::copy_run<V>(smem + o, stride, &src[static_cast<std::size_t>(lane)],
                        sizeof(V), n);
    lanes_active += static_cast<std::uint64_t>(n);
  });
  s.smem_wavefronts += detail::kSmemWidthFactor<V>;
  s.smem_store_bytes += lanes_active * sizeof(V);
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
