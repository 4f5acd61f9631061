#include "vsparse/gpusim/tensorcore.hpp"

#include <bit>
#include <cstring>

namespace vsparse::gpusim {

namespace {

/// Lane index of the j-th thread (0..3) of the low/high group of octet o.
constexpr int octet_lane(int octet, int j, bool high) {
  return (high ? 16 : 0) + 4 * octet + j;
}

}  // namespace

void Warp::mma_m8n8k4(const MmaFragAB& a, const MmaFragAB& b, MmaFragC& c,
                      MmaFlags flags) {
  count(Op::kHmma,
          static_cast<std::uint64_t>(std::popcount(flags.step_mask & 0xFu)));

  // Effective source fragments: SWITCH exchanges the Mat_a sources of
  // groups i and i+4 and inverts the Mat_b mux, which is equivalent to
  // swapping the low/high halves of both fragments (header comment).
  const MmaFragAB* ea = &a;
  const MmaFragAB* eb = &b;
  MmaFragAB swapped_a, swapped_b;
  if (FaultState* faults = sm().faults(); faults != nullptr)
      [[unlikely]] {
    // Register-fragment upset: corrupt local copies of the operands so
    // the fault is confined to this MMA, like a real register flip.
    swapped_a = a;
    swapped_b = b;
    faults->on_mma_frags(swapped_a.data(), sizeof(MmaFragAB),
                         swapped_b.data(), sizeof(MmaFragAB),
                         stats());
    ea = &swapped_a;
    eb = &swapped_b;
    if (flags.switch_groups) {
      for (int lane = 0; lane < 16; ++lane) {
        std::swap(swapped_a[static_cast<std::size_t>(lane)],
                  swapped_a[static_cast<std::size_t>(lane + 16)]);
        std::swap(swapped_b[static_cast<std::size_t>(lane)],
                  swapped_b[static_cast<std::size_t>(lane + 16)]);
      }
    }
  } else if (flags.switch_groups) {
    swapped_a = a;
    swapped_b = b;
    for (int lane = 0; lane < 16; ++lane) {
      std::swap(swapped_a[static_cast<std::size_t>(lane)],
                swapped_a[static_cast<std::size_t>(lane + 16)]);
      std::swap(swapped_b[static_cast<std::size_t>(lane)],
                swapped_b[static_cast<std::size_t>(lane + 16)]);
    }
    ea = &swapped_a;
    eb = &swapped_b;
  }

  // Widen both fragments once (half -> float is exact, so hoisting the
  // conversions out of the MAC loops cannot change any product); the
  // per-output fold over k keeps the naive loop's order, so results are
  // bit-identical to converting inside the innermost loop.
  // Flatten through a byte copy (half4 lanes are contiguous, but
  // indexing across the 4-element inner arrays directly would be UB).
  half_t ha[128], hb[128];
  static_assert(sizeof(ha) == sizeof(MmaFragAB));
  std::memcpy(static_cast<void*>(ha), static_cast<const void*>(ea->data()),
              sizeof(ha));
  std::memcpy(static_cast<void*>(hb), static_cast<const void*>(eb->data()),
              sizeof(hb));
  float wa[128], wb[128];  // lane-major: wa[4*lane + k]
  half_to_float_n(ha, wa, 128);
  half_to_float_n(hb, wb, 128);
  for (int octet = 0; octet < 4; ++octet) {
    for (int step = 0; step < 4; ++step) {
      if (!(flags.step_mask & (1u << step))) continue;
      const bool rows_high = (step == 1 || step == 3);
      const bool cols_high = (step >= 2);
      const int col_base = cols_high ? 4 : 0;
      for (int r = 0; r < 4; ++r) {
        const int row_lane = octet_lane(octet, r, rows_high);
        const float* arow = wa + 4 * row_lane;
        // The accumulator for this output row lives in the lane that
        // sourced the A row in the *unswitched* layout: the destination
        // (Acc buffer) is per thread group and is not switched.
        auto& crow = c[static_cast<std::size_t>(row_lane)];
        for (int col = 0; col < 4; ++col) {
          const int col_lane = octet_lane(octet, col, cols_high);
          const float* bcol = wb + 4 * col_lane;
          float sum = 0.0f;
          for (int k = 0; k < 4; ++k) {
            sum += arow[k] * bcol[k];
          }
          crow[static_cast<std::size_t>(col_base + col)] += sum;
        }
      }
    }
  }
}

void Warp::wmma_m8n32k16(const half_t (&a)[8][16],
                         const half_t (&b)[16][32],
                         float* const (&c_rows)[8], int rows, int k_extent) {
  VSPARSE_DCHECK(rows >= 0 && rows <= 8 && k_extent >= 1 && k_extent <= 16);
  // (8*32*16) MACs / (8*4*4 per HMMA.884 step * 4 octets / 4 steps):
  // the hardware instruction decomposes into 16 HMMA steps, whatever
  // the k-extent — padding k to 16 is the §3.2 waste the model charges.
  count(Op::kHmma, 16);
  const half_t(*ea)[16] = a;
  const half_t(*eb)[32] = b;
  half_t fa[8][16], fb[16][32];
  if (FaultState* faults = sm().faults(); faults != nullptr)
      [[unlikely]] {
    // Register-fragment upset on local operand copies (see mma_m8n8k4).
    // The upset may land in the zero padding, so multiply all 16 rows.
    std::memcpy(fa, a, sizeof(fa));
    std::memcpy(fb, b, sizeof(fb));
    faults->on_mma_frags(fa, sizeof(fa), fb, sizeof(fb), stats());
    ea = fa;
    eb = fb;
    k_extent = 16;
  }
  // Widen both tiles once (exact, see mma_m8n8k4), then accumulate with
  // the i/k/j loop order so the j loop vectorizes.  Each c[i][j] still
  // receives sum_{k} a[i][k]*b[k][j] folded over ascending k into a
  // zero-initialized partial that is added to c once at the end —
  // exactly the naive j-inner loop's operation sequence per output, so
  // results are bit-identical.  Only the first k_extent k-rows are
  // widened and multiplied: the caller guarantees that A columns and B
  // rows past it are +0.  Their products are +0 × +0 = +0; a partial
  // that starts at +0 is never −0 (a round-to-nearest sum is −0 only
  // when both addends are), and adding +0 to anything but −0 leaves it
  // unchanged, NaN and ±Inf included.  So the skipped steps change no
  // bit.
  float wa[8 * 16], wb[16 * 32];  // row-major flats (2-D indexing into a
                                  // [8][16] local would be UB past the
                                  // inner bound for the batch converter)
  const auto kn = static_cast<std::size_t>(k_extent);
  for (int i = 0; i < rows; ++i) half_to_float_n(ea[i], wa + 16 * i, kn);
  for (int k = 0; k < k_extent; ++k) half_to_float_n(eb[k], wb + 32 * k, 32);
  for (int i = 0; i < rows; ++i) {
    float sum[32] = {};
    for (int k = 0; k < k_extent; ++k) {
      const float aik = wa[16 * i + k];
      const float* brow = wb + 32 * k;
      for (int j = 0; j < 32; ++j) {
        sum[j] += aik * brow[j];
      }
    }
    float* crow = c_rows[i];
    for (int j = 0; j < 32; ++j) {
      crow[j] += sum[j];
    }
  }
}

}  // namespace vsparse::gpusim
