// CTA/warp execution contexts — the handles kernel bodies are written
// against.  The warp-op template bodies (ldg/stg/lds/sts/shfl) live in
// warp_ops.hpp so they stay header-only for inlining into kernels.
#pragma once

#include <array>
#include <cstdint>

#include "vsparse/common/macros.hpp"
#include "vsparse/fp16/vec.hpp"
#include "vsparse/gpusim/engine/lanes.hpp"
#include "vsparse/gpusim/engine/launch_config.hpp"
#include "vsparse/gpusim/engine/sm_context.hpp"
#include "vsparse/gpusim/sanitizer/shadow.hpp"
#include "vsparse/gpusim/stats.hpp"
#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {

class Cta;

/// Per-lane A/B fragments for mma.m8n8k4: 4 halves each.
using MmaFragAB = Lanes<half4>;
/// Per-lane accumulator fragment: one 8-float output row.
using MmaFragC = Lanes<std::array<float, 8>>;

struct MmaFlags {
  bool switch_groups = false;  ///< the Fig. 15 architecture extension
  unsigned step_mask = 0xF;    ///< which of STEP0..3 to execute
};

/// Handle through which kernel code issues warp-level operations.
///
/// ## Address-pattern contract (uniform / affine / divergent)
///
/// Every memory op exists in two forms with identical observable
/// behavior (data movement, counters, trace events, sanitizer reports,
/// fault injection):
///
///  * **per-lane** (`ldg`/`stg`/`lds`/`sts`): the kernel materializes a
///    32-entry address array.  This is the fully general *divergent*
///    form — any lane may point anywhere — and the engine pays one
///    address translation, one bounds check, and one sector/bank
///    dedup step per active lane.
///  * **span** (`ldg_span`/`stg_span`/`lds_span`/`sts_span`): the
///    kernel *states* the pattern as segments of an affine sequence:
///    lanes split into `segs` consecutive segments of `width` lanes
///    each (`segs * width <= 32`), and lane `l = seg*width + t`
///    addresses `seg_base[seg] + t*stride`.  *Uniform* is `stride == 0`;
///    pure *affine* is one segment.  The engine services each run of
///    active lanes with one hull translation / bounds check, an
///    interval sector walk and closed-form (or scanned) bank-conflict
///    accounting — O(segs) consultations instead of O(32).
///
/// Span ops are counter- and bit-exact with their per-lane forms by
/// construction (DESIGN.md §2h gives the equivalence argument), and
/// they *self-divert*: when a sanitizer or fault plan is attached, a
/// global span is not one contiguous lane run per segment with a stride
/// of at most 32 B, or a shared-memory hull check fails and per-lane
/// reporting is owed, the span op expands its descriptor into lane
/// arrays and runs the per-lane path, so the slow diagnostic surfaces
/// see exactly the per-lane access sequence.  Kernels should state
/// patterns with span ops and reserve hand-built lane arrays for
/// genuinely divergent accesses.
class Warp {
 public:
  Warp(Cta* cta, int warp_id) : cta_(cta), warp_id_(warp_id) {}

  int warp_id() const { return warp_id_; }

  /// Manual instruction accounting for work the C++ body does implicitly
  /// (address arithmetic -> IMAD/IADD3, predicate logic -> MISC...).
  /// Placed where the corresponding CUDA kernel would execute them.
  void count(Op op, std::uint64_t n = 1);

  /// Global load: each active lane reads a naturally-aligned value of
  /// type V from its device address.  sizeof(V) in {2,4,8,16} selects
  /// LDG.{16,32,64,128}.  Coalescing (unique 32 B sectors across the
  /// warp) is measured, then the L1 (this SM) and L2 models are walked.
  template <class V>
  void ldg(const AddrLanes& addr, Lanes<V>& dst,
           std::uint32_t mask = kFullMask);

  /// Global store: write-through to DRAM via L2; L1 bypassed (Volta
  /// global stores do not allocate in L1).
  template <class V>
  void stg(const AddrLanes& addr, const Lanes<V>& src,
           std::uint32_t mask = kFullMask);

  /// Shared-memory load/store; `off` are byte offsets into CTA smem.
  /// Bank conflicts (32 banks x 4 B) expand into extra wavefronts.
  template <class V>
  void lds(const Lanes<std::uint32_t>& off, Lanes<V>& dst,
           std::uint32_t mask = kFullMask);
  template <class V>
  void sts(const Lanes<std::uint32_t>& off, const Lanes<V>& src,
           std::uint32_t mask = kFullMask);

  /// Span global load: lane `l = seg*width + t` (t < width, seg < segs)
  /// reads sizeof(V) bytes from `seg_base[seg] + t*stride`.  One hull
  /// translation and one interval sector walk per segment replace the
  /// 32 per-lane ones; counters match `ldg` on the expanded addresses
  /// bit-for-bit (see the class comment for the full contract).
  template <class V>
  void ldg_span(const std::uint64_t* seg_base, int segs, int width,
                std::uint32_t stride, Lanes<V>& dst,
                std::uint32_t mask = kFullMask);

  /// Affine global load: lane l reads from `base + l*stride`
  /// (stride == 0 is the uniform broadcast pattern).
  template <class V>
  void ldg_span(std::uint64_t base, std::uint32_t stride, Lanes<V>& dst,
                std::uint32_t mask = kFullMask);

  /// Span global store (write-through, same pattern grammar as
  /// ldg_span).
  template <class V>
  void stg_span(const std::uint64_t* seg_base, int segs, int width,
                std::uint32_t stride, const Lanes<V>& src,
                std::uint32_t mask = kFullMask);

  /// Affine global store.
  template <class V>
  void stg_span(std::uint64_t base, std::uint32_t stride, const Lanes<V>& src,
                std::uint32_t mask = kFullMask);

  /// Span shared-memory load: lane `l = seg*width + t` reads from byte
  /// offset `seg_off[seg] + t*stride`.  One hull bounds check per
  /// segment; the bank-conflict degree is computed in closed form for
  /// full-mask affine/repeated patterns and by the per-lane scan
  /// otherwise — identical to `lds` either way.
  template <class V>
  void lds_span(const std::uint32_t* seg_off, int segs, int width,
                std::uint32_t stride, Lanes<V>& dst,
                std::uint32_t mask = kFullMask);

  /// Affine shared-memory load.
  template <class V>
  void lds_span(std::uint32_t off, std::uint32_t stride, Lanes<V>& dst,
                std::uint32_t mask = kFullMask);

  /// Span shared-memory store.
  template <class V>
  void sts_span(const std::uint32_t* seg_off, int segs, int width,
                std::uint32_t stride, const Lanes<V>& src,
                std::uint32_t mask = kFullMask);

  /// Affine shared-memory store.
  template <class V>
  void sts_span(std::uint32_t off, std::uint32_t stride, const Lanes<V>& src,
                std::uint32_t mask = kFullMask);

  /// Warp-wide mma.m8n8k4: four octets each compute an (8x4)·(4x8)
  /// product accumulated in fp32.  Charges one HMMA issue slot per
  /// executed step.  Fragment layout and the SWITCH extension are
  /// documented in gpusim/tensorcore.hpp.
  void mma_m8n8k4(const MmaFragAB& a, const MmaFragAB& b, MmaFragC& c,
                  MmaFlags flags = {});

  /// Warp-level WMMA (8x16)·(16x32) with fp32 accumulation, used by the
  /// classic-mapping baseline kernels (§5.2, §6.2).  Consumes assembled
  /// logical tiles and charges the 16 HMMA.884 steps the hardware
  /// instruction decomposes into.
  void wmma_m8n32k16(const half_t (&a)[8][16], const half_t (&b)[16][32],
                     float (&c)[8][32]);

  /// Strided in-place WMMA form: accumulates row i of the product into
  /// c_rows[i][0..32) for i < rows, where each row pointer may alias a
  /// larger accumulator tile.  Rows past `rows` are skipped entirely —
  /// bit-identical to running the [8][32] form on zero-padded A rows
  /// and discarding the padded output rows, without the staging copies.
  void wmma_m8n32k16(const half_t (&a)[8][16], const half_t (&b)[16][32],
                     float* const (&c_rows)[8], int rows);

  /// Warp shuffle: dst[lane] = src[srclane[lane]] for active lanes.
  template <class T>
  void shfl(Lanes<T>& dst, const Lanes<T>& src, const Lanes<int>& srclane,
            std::uint32_t mask = kFullMask);

  /// dst[lane] = src[lane ^ xor_mask] (butterfly reduction step).
  template <class T>
  void shfl_xor(Lanes<T>& dst, const Lanes<T>& src, int xor_mask,
                std::uint32_t mask = kFullMask);

  /// __threadfence_block(): the §5.4 ILP trick uses this to separate the
  /// load batch from the MMA batch.  Counted as a MEMBAR issue slot.
  void fence();

  /// Per-warp barrier arrival (bar.sync as one warp executes it) —
  /// advances this warp's barrier epoch for the sanitizer's racecheck.
  /// Warps run phase-by-phase, so a CTA-wide barrier is each warp
  /// executing bar_sync once per phase; `Cta::sync()` is the uniform
  /// shorthand that arrives every warp.  A partial `mask` models a
  /// barrier executed under divergence — always a bug, and what
  /// synccheck exists to report.  Costs one kBar issue slot, exactly
  /// like one warp's share of Cta::sync().
  void bar_sync(std::uint32_t mask = kFullMask);

  Cta& cta() { return *cta_; }

 private:
  KernelStats& stats();
  Device& device();
  SmContext& sm();
  int sm_id() const;

  Cta* cta_;
  int warp_id_;
};

/// Per-CTA execution context: identity, shared memory, warp handles.
/// Backed by the SmContext of the SM this CTA was scheduled on.
class Cta {
 public:
  Cta(SmContext* sm, const LaunchConfig* cfg, int cta_id)
      : sm_(sm), cfg_(cfg), cta_id_(cta_id) {}

  int cta_id() const { return cta_id_; }
  int num_ctas() const { return cfg_->grid; }
  int sm_id() const { return sm_->sm_id(); }
  int num_warps() const { return cfg_->cta_threads / 32; }

  Warp warp(int w) {
    VSPARSE_DCHECK(w >= 0 && w < num_warps());
    return Warp(this, w);
  }

  /// Run `fn(Warp&)` for every warp of the CTA (one execution phase).
  template <class F>
  void for_each_warp(F&& fn) {
    for (int w = 0; w < num_warps(); ++w) {
      Warp wp(this, w);
      fn(wp);
    }
  }

  /// __syncthreads(): counted once per warp.
  void sync() {
    sm_->stats().op(Op::kBar) += static_cast<std::uint64_t>(num_warps());
    sm_->watchdog_tick(static_cast<std::uint64_t>(num_warps()));
    if (SmTrace* t = sm_->trace()) [[unlikely]] {
      t->on_sync(cta_id_, num_warps());
    }
    if (SmSanitizer* san = sm_->sanitizer()) [[unlikely]] {
      san->on_cta_sync();
    }
  }

  /// Raw shared-memory storage (kernels address it via lds/sts offsets;
  /// this pointer backs those accesses).
  std::byte* smem() { return sm_->smem(); }
  std::size_t smem_bytes() const { return cfg_->smem_bytes; }

  Device& device() { return sm_->device(); }
  KernelStats& stats() { return sm_->stats(); }
  SmContext& sm() { return *sm_; }

 private:
  SmContext* sm_;
  const LaunchConfig* cfg_;
  int cta_id_;
};

inline KernelStats& Warp::stats() { return cta_->stats(); }
inline Device& Warp::device() { return cta_->device(); }
inline SmContext& Warp::sm() { return cta_->sm(); }
inline int Warp::sm_id() const { return cta_->sm_id(); }

inline void Warp::count(Op op, std::uint64_t n) {
  stats().op(op) += n;
  sm().watchdog_tick(n);
  if (SmTrace* t = sm().trace()) [[unlikely]] {
    t->on_ops(op, n, cta_->cta_id(), warp_id_);
  }
}

inline void Warp::fence() { count(Op::kBar); }

inline void Warp::bar_sync(std::uint32_t mask) {
  count(Op::kBar);
  if (SmSanitizer* san = sm().sanitizer()) [[unlikely]] {
    san->on_bar_arrive(warp_id_, mask);
  }
}

}  // namespace vsparse::gpusim
