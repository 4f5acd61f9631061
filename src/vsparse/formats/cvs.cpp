#include "vsparse/formats/cvs.hpp"

#include "vsparse/serve/error.hpp"

namespace vsparse {

// Encoding invariants are classified malformed-format errors: a bad
// CVS fails every kernel the same way, so the serving layer rejects it
// outright instead of walking the degradation ladder.
#define CVS_CHECK(cond) \
  VSPARSE_CHECK_RAISE(cond, ErrorCode::kMalformedFormat, "formats.cvs", \
                      "cvs: encoding invariant violated: " #cond)

void Cvs::validate() const {
  CVS_CHECK(v == 1 || v == 2 || v == 4 || v == 8);
  CVS_CHECK(rows % v == 0);
  CVS_CHECK(static_cast<int>(row_ptr.size()) == vec_rows() + 1);
  CVS_CHECK(row_ptr.front() == 0);
  CVS_CHECK(row_ptr.back() == nnz_vectors());
  CVS_CHECK(values.size() ==
            col_idx.size() * static_cast<std::size_t>(v));
  for (int r = 0; r < vec_rows(); ++r) {
    CVS_CHECK(row_ptr[static_cast<std::size_t>(r)] <=
              row_ptr[static_cast<std::size_t>(r) + 1]);
    for (std::int32_t i = row_ptr[static_cast<std::size_t>(r)];
         i < row_ptr[static_cast<std::size_t>(r) + 1]; ++i) {
      const std::int32_t c = col_idx[static_cast<std::size_t>(i)];
      CVS_CHECK(c >= 0 && c < cols);
      if (i > row_ptr[static_cast<std::size_t>(r)]) {
        CVS_CHECK(col_idx[static_cast<std::size_t>(i) - 1] < c);
      }
    }
  }
}

Cvs Cvs::from_dense(const DenseMatrix<half_t>& m, int v) {
  VSPARSE_CHECK(v == 1 || v == 2 || v == 4 || v == 8);
  VSPARSE_CHECK_MSG(m.rows() % v == 0,
                    "rows " << m.rows() << " not divisible by V=" << v);
  Cvs out;
  out.rows = m.rows();
  out.cols = m.cols();
  out.v = v;
  out.row_ptr.reserve(static_cast<std::size_t>(out.vec_rows()) + 1);
  out.row_ptr.push_back(0);
  for (int vr = 0; vr < out.vec_rows(); ++vr) {
    for (int c = 0; c < m.cols(); ++c) {
      bool any = false;
      for (int t = 0; t < v; ++t) {
        if (static_cast<float>(m.at(vr * v + t, c)) != 0.0f) {
          any = true;
          break;
        }
      }
      if (any) {
        out.col_idx.push_back(c);
        for (int t = 0; t < v; ++t) out.values.push_back(m.at(vr * v + t, c));
      }
    }
    out.row_ptr.push_back(static_cast<std::int32_t>(out.col_idx.size()));
  }
  return out;
}

DenseMatrix<half_t> Cvs::to_dense() const {
  DenseMatrix<half_t> m(rows, cols);
  for (int vr = 0; vr < vec_rows(); ++vr) {
    for (std::int32_t i = row_ptr[static_cast<std::size_t>(vr)];
         i < row_ptr[static_cast<std::size_t>(vr) + 1]; ++i) {
      const std::int32_t c = col_idx[static_cast<std::size_t>(i)];
      for (int t = 0; t < v; ++t) {
        m.at(vr * v + t, c) =
            values[static_cast<std::size_t>(i) * static_cast<std::size_t>(v) +
                   static_cast<std::size_t>(t)];
      }
    }
  }
  return m;
}

// The column indices declare the vector-load tail slack of cvs.hpp, so
// the paired index loads a kernel issues from a row's last element do
// not trip the boundscheck's red-zone guard.
CvsDevice to_device(gpusim::Device& dev, const Cvs& m) {
  return CvsDevice{dev.alloc_copy<std::int32_t>(m.row_ptr, "cvs.row_ptr"),
                   dev.alloc_copy<std::int32_t>(m.col_idx, "cvs.col_idx",
                                                kCvsColIdxTailSlack),
                   dev.alloc_copy<half_t>(m.values, "cvs.values"),
                   m.rows,
                   m.cols,
                   m.v};
}

CvsDeviceT<float> to_device_f32(gpusim::Device& dev, const Cvs& m) {
  std::vector<float> widened(m.values.size());
  for (std::size_t i = 0; i < m.values.size(); ++i) {
    widened[i] = static_cast<float>(m.values[i]);
  }
  return CvsDeviceT<float>{dev.alloc_copy<std::int32_t>(m.row_ptr,
                                                        "cvs.row_ptr"),
                           dev.alloc_copy<std::int32_t>(m.col_idx,
                                                        "cvs.col_idx",
                                                        kCvsColIdxTailSlack),
                           dev.alloc_copy<float>(widened, "cvs.values"),
                           m.rows,
                           m.cols,
                           m.v};
}

}  // namespace vsparse
