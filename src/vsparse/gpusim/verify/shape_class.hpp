// Shape classes — the parameter-space boxes the shape-class verifier
// certifies kernels over.
//
// A ShapeClass is a box over (M, K, N, density) with a per-dimension
// alignment modulus and an exact vector width V: it denotes every
// concrete shape whose extents lie in the box and respect the moduli.
// Every address expression the kernels build is monotone in each of
// M, K, N, and the per-row nonzero count (strides and extents are
// nonnegative), so running a kernel at the corner shapes — on operands
// that put the data-dependent quantities (per-row count, row placement,
// gather columns) at their extremes (verifier.hpp) — covers the whole
// class.
#pragma once

#include <string>
#include <vector>

namespace vsparse::verify {

/// One concrete shape — a corner of a ShapeClass, and the form a
/// refutation's counterexample is reported in.
struct ShapeCorner {
  int m = 0;
  int k = 0;
  int n = 0;
  int v = 1;
  double density = 1.0;  ///< fraction of nonzero scalars

  std::string str() const;
};

/// Inclusive extent range with an alignment modulus: denotes
/// { x : lo <= x <= hi, x % mod == 0 }.  lo and hi must themselves be
/// multiples of mod.
struct DimRange {
  int lo = 0;
  int hi = 0;
  int mod = 1;

  bool contains(int x) const {
    return x >= lo && x <= hi && (mod <= 1 || x % mod == 0);
  }
};

struct ShapeClass {
  std::string name;  ///< stable id ("fig17-v4", ...)
  int v = 1;         ///< exact vector width
  DimRange m, k, n;
  double d_lo = 0.0;  ///< density range (fraction nonzero)
  double d_hi = 1.0;

  bool contains(const ShapeCorner& s) const {
    return s.v == v && m.contains(s.m) && k.contains(s.k) && n.contains(s.n) &&
           s.density >= d_lo - 1e-12 && s.density <= d_hi + 1e-12;
  }

  /// The corner shapes: {lo,hi} per extent dimension x density extremes
  /// (deduplicated when lo == hi).
  std::vector<ShapeCorner> corners() const;

  /// Degenerate single-shape class (used by the shape-corpus tests).
  static ShapeClass singleton(const std::string& name, const ShapeCorner& s);
};

/// The classes the shipped kernels are certified over: the fig05
/// profile shapes, the fig05 dense GEMM operands, and the fig17 DLMC
/// sweep grid per vector width.  All extents are multiples of 64, as
/// the bench suites generate them.
std::vector<ShapeClass> builtin_shape_classes();

}  // namespace vsparse::verify
