// Host-side dense matrices and their device mirrors.
//
// Convention follows the paper (§4.1): activations and SpMM operands
// are row-major (PyTorch/TensorFlow layout); the SDDMM RHS is stored
// column-major to absorb the transpose that self-attention needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "vsparse/common/macros.hpp"
#include "vsparse/common/rng.hpp"
#include "vsparse/fp16/half.hpp"
#include "vsparse/gpusim/device.hpp"

namespace vsparse {

enum class Layout : std::uint8_t { kRowMajor, kColMajor };

/// Dense rows x cols matrix with explicit layout.
template <class T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols, Layout layout = Layout::kRowMajor)
      : rows_(rows), cols_(cols), layout_(layout) {
    VSPARSE_CHECK(rows >= 0 && cols >= 0);
    data_.resize(static_cast<std::size_t>(rows) *
                 static_cast<std::size_t>(cols));
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  Layout layout() const { return layout_; }

  T& at(int r, int c) {
    VSPARSE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[index(r, c)];
  }
  const T& at(int r, int c) const {
    VSPARSE_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[index(r, c)];
  }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

  /// Leading dimension (elements between consecutive rows for
  /// row-major, columns for col-major).
  int ld() const { return layout_ == Layout::kRowMajor ? cols_ : rows_; }

  /// Fill with uniform values in [lo, hi).
  void fill_random(Rng& rng, float lo = -1.0f, float hi = 1.0f) {
    for (T& v : data_) v = T(rng.uniform_float(lo, hi));
  }

  /// Fill with small integers (fp16-exact, order-insensitive sums) for
  /// bit-exact kernel-vs-reference testing.
  void fill_random_int(Rng& rng, int lo = -3, int hi = 3) {
    for (T& v : data_) v = T(static_cast<float>(rng.uniform_int(lo, hi)));
  }

  /// Layout-converted copy.
  DenseMatrix<T> with_layout(Layout target) const {
    if (target == layout_) return *this;
    DenseMatrix<T> out(rows_, cols_, target);
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
    }
    return out;
  }

 private:
  std::size_t index(int r, int c) const {
    return layout_ == Layout::kRowMajor
               ? static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                     static_cast<std::size_t>(c)
               : static_cast<std::size_t>(c) * static_cast<std::size_t>(rows_) +
                     static_cast<std::size_t>(r);
  }

  int rows_ = 0;
  int cols_ = 0;
  Layout layout_ = Layout::kRowMajor;
  std::vector<T> data_;
};

/// Device mirror of a DenseMatrix: the buffer plus addressing metadata
/// kernels need to compute per-lane global addresses.
template <class T>
struct DenseDevice {
  gpusim::Buffer<T> buf;
  int rows = 0;
  int cols = 0;
  int ld = 0;
  Layout layout = Layout::kRowMajor;

  /// Device byte address of element (r, c).
  std::uint64_t addr(int r, int c) const {
    const auto idx = layout == Layout::kRowMajor
                         ? static_cast<std::size_t>(r) *
                                   static_cast<std::size_t>(ld) +
                               static_cast<std::size_t>(c)
                         : static_cast<std::size_t>(c) *
                                   static_cast<std::size_t>(ld) +
                               static_cast<std::size_t>(r);
    return buf.addr(idx);
  }
};

/// Vector-load tail slack, in elements, every uploaded dense matrix
/// declares (Device::alloc): the widest vectorized access any kernel
/// issues from an unaligned base inside the matrix is 16 elements, so
/// the last in-bounds element can be loaded as the head of one such
/// vector without a false OOB — the same Sputnik-style contract the CVS
/// arrays declare (cvs.hpp).
inline constexpr std::size_t kDenseTailSlack = 15;

/// Upload a host matrix to the device, declaring kDenseTailSlack.
template <class T>
DenseDevice<T> to_device(gpusim::Device& dev, const DenseMatrix<T>& m) {
  return DenseDevice<T>{dev.alloc_copy<T>(m.data(), "dense", kDenseTailSlack),
                        m.rows(), m.cols(), m.ld(), m.layout()};
}

/// A rows x cols window of a device matrix starting at (r0, c0), backed
/// by the same device memory (no copy).  The view keeps the parent's
/// leading dimension, so kernels address it exactly as they would a
/// standalone matrix — this is how the ABFT recovery path re-runs a
/// kernel on just one corrupted output tile.
template <class T>
DenseDevice<T> sub_view(gpusim::Device& dev, const DenseDevice<T>& m, int r0,
                        int c0, int rows, int cols) {
  VSPARSE_CHECK(rows > 0 && cols > 0);
  VSPARSE_CHECK(r0 >= 0 && c0 >= 0 && r0 + rows <= m.rows &&
                c0 + cols <= m.cols);
  // Elements spanned by the window in the parent's storage order: full
  // leading dimensions for all but the last row/column.
  const std::size_t count =
      m.layout == Layout::kRowMajor
          ? static_cast<std::size_t>(rows - 1) * static_cast<std::size_t>(m.ld) +
                static_cast<std::size_t>(cols)
          : static_cast<std::size_t>(cols - 1) * static_cast<std::size_t>(m.ld) +
                static_cast<std::size_t>(rows);
  return DenseDevice<T>{gpusim::Buffer<T>(&dev, m.addr(r0, c0), count), rows,
                        cols, m.ld, m.layout};
}

/// Download a device matrix into a host DenseMatrix.
template <class T>
DenseMatrix<T> from_device(const DenseDevice<T>& d) {
  DenseMatrix<T> m(d.rows, d.cols, d.layout);
  auto src = d.buf.host();
  std::copy(src.begin(), src.end(), m.data().begin());
  return m;
}

}  // namespace vsparse
