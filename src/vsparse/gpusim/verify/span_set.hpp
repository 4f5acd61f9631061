// Exact overlap test between two span descriptors.
//
// A SpanRef is the address footprint of one span op in the engine's
// descriptor vocabulary (warp_ops.hpp): `segs` segments of `width`
// lanes, lane t of segment s covering
//
//   [seg_base[s] + t*stride, seg_base[s] + t*stride + access)
//
// for every active lane (bit s*width + t of `mask`).  The test is
// exact, not a hull approximation: the hull pre-filter rejects the
// common disjoint case in O(segs_a * segs_b), and only hull-colliding
// segment pairs fall through to the per-lane interval walk (bounded by
// 32 x 32 lane pairs).
//
// The sanitizer's racecheck span fast path is its only user: a
// shared-memory span op provably disjoint from every cross-warp
// same-epoch access skips the per-byte shadow walk
// (sanitizer/shadow.hpp).
#pragma once

#include <cstdint>

namespace vsparse::verify {

struct SpanRef {
  const std::uint64_t* seg_base = nullptr;  ///< byte address of lane 0, per seg
  int segs = 0;
  int width = 0;                ///< lanes per segment
  std::uint64_t stride = 0;     ///< bytes between consecutive lanes
  std::uint32_t access = 0;     ///< bytes accessed per lane
  std::uint32_t mask = 0;       ///< active lanes (bit seg*width + t)
};

/// Exact: true iff some active byte of `a` is also an active byte of `b`.
bool spans_overlap(const SpanRef& a, const SpanRef& b);

}  // namespace vsparse::verify
