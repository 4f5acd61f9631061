#include "vsparse/formats/generate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace vsparse {

namespace {

/// Draw `count` distinct sorted columns from [0, cols) by partial
/// Fisher-Yates over a scratch index array.
void sample_columns(int cols, int count, Rng& rng,
                    std::vector<std::int32_t>& scratch,
                    std::vector<std::int32_t>& out) {
  VSPARSE_CHECK(count <= cols);
  if (static_cast<int>(scratch.size()) != cols) {
    scratch.resize(static_cast<std::size_t>(cols));
    std::iota(scratch.begin(), scratch.end(), 0);
  }
  for (int i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        i + static_cast<int>(rng.uniform_u64(
                static_cast<std::uint64_t>(cols - i))));
    std::swap(scratch[static_cast<std::size_t>(i)], scratch[j]);
  }
  const auto begin = out.size();
  out.insert(out.end(), scratch.begin(), scratch.begin() + count);
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end());
}

}  // namespace

void random_pattern(int rows, int cols, double sparsity, double row_jitter,
                    Rng& rng, std::vector<std::int32_t>& row_ptr,
                    std::vector<std::int32_t>& col_idx) {
  VSPARSE_CHECK(rows >= 0 && cols >= 0);
  VSPARSE_CHECK(sparsity >= 0.0 && sparsity <= 1.0);
  VSPARSE_CHECK(row_jitter >= 0.0 && row_jitter < 1.0);
  row_ptr.clear();
  col_idx.clear();
  row_ptr.reserve(static_cast<std::size_t>(rows) + 1);
  row_ptr.push_back(0);
  const double density = 1.0 - sparsity;
  std::vector<std::int32_t> scratch;
  for (int r = 0; r < rows; ++r) {
    const double jitter =
        1.0 + row_jitter * (2.0 * static_cast<double>(rng.uniform_float()) - 1.0);
    int count = static_cast<int>(std::lround(density * cols * jitter));
    count = std::clamp(count, 0, cols);
    sample_columns(cols, count, rng, scratch, col_idx);
    row_ptr.push_back(static_cast<std::int32_t>(col_idx.size()));
  }
}

Cvs make_cvs(int m, int k, int v, double sparsity, Rng& rng,
             double row_jitter) {
  VSPARSE_CHECK(m % v == 0);
  Cvs out;
  out.rows = m;
  out.cols = k;
  out.v = v;
  random_pattern(m / v, k, sparsity, row_jitter, rng, out.row_ptr,
                 out.col_idx);
  out.values.resize(out.col_idx.size() * static_cast<std::size_t>(v));
  for (half_t& h : out.values) h = half_t(rng.uniform_float(0.5f, 1.5f));
  return out;
}

Cvs make_cvs_mask(int m, int n, int v, double sparsity, Rng& rng,
                  double row_jitter) {
  Cvs out = make_cvs(m, n, v, sparsity, rng, row_jitter);
  std::fill(out.values.begin(), out.values.end(), half_t(1.0f));
  return out;
}

Cvs make_corner_cvs(int rows, int cols, int v, int vec_row, int count) {
  VSPARSE_CHECK(v >= 1 && rows >= 0 && rows % v == 0);
  VSPARSE_CHECK(count >= 0 && count <= cols);
  VSPARSE_CHECK(vec_row >= 0 && (vec_row < rows / v || count == 0));
  Cvs out;
  out.rows = rows;
  out.cols = cols;
  out.v = v;
  out.row_ptr.assign(static_cast<std::size_t>(rows / v) + 1, 0);
  for (int r = vec_row + 1; r <= rows / v; ++r) {
    out.row_ptr[static_cast<std::size_t>(r)] = count;
  }
  out.col_idx.resize(static_cast<std::size_t>(count));
  std::iota(out.col_idx.begin(), out.col_idx.end(), cols - count);
  out.values.assign(out.col_idx.size() * static_cast<std::size_t>(v),
                    half_t(1.0f));
  return out;
}

BlockedEll make_blocked_ell(int m, int k, int block, double sparsity,
                            Rng& rng) {
  VSPARSE_CHECK(m % block == 0 && k % block == 0);
  BlockedEll out;
  out.rows = m;
  out.cols = k;
  out.block = block;
  const int block_cols = k / block;
  out.blocks_per_row = std::clamp(
      static_cast<int>(std::ceil(block_cols * (1.0 - sparsity))), 0,
      block_cols);
  out.col_idx.reserve(static_cast<std::size_t>(out.stored_blocks()));
  std::vector<std::int32_t> scratch;
  std::vector<std::int32_t> row_cols;
  for (int brow = 0; brow < out.block_rows(); ++brow) {
    row_cols.clear();
    sample_columns(block_cols, out.blocks_per_row, rng, scratch, row_cols);
    out.col_idx.insert(out.col_idx.end(), row_cols.begin(), row_cols.end());
  }
  out.values.resize(static_cast<std::size_t>(out.stored_blocks()) *
                    static_cast<std::size_t>(block) *
                    static_cast<std::size_t>(block));
  for (half_t& h : out.values) h = half_t(rng.uniform_float(0.5f, 1.5f));
  return out;
}

Cvs make_attention_mask(int seq, int v, int band, double sparsity, Rng& rng) {
  VSPARSE_CHECK(seq % v == 0);
  Cvs out;
  out.rows = seq;
  out.cols = seq;
  out.v = v;
  out.row_ptr.push_back(0);
  const int per_row_target =
      std::clamp(static_cast<int>(std::lround(seq * (1.0 - sparsity))), 0, seq);
  std::vector<char> taken(static_cast<std::size_t>(seq));
  for (int vr = 0; vr < seq / v; ++vr) {
    std::fill(taken.begin(), taken.end(), char{0});
    const int center = vr * v;
    int count = 0;
    // Dense band along the diagonal.
    const int lo = std::max(0, center - band / 2);
    const int hi = std::min(seq - 1, center + band / 2);
    for (int c = lo; c <= hi && count < per_row_target; ++c) {
      taken[static_cast<std::size_t>(c)] = 1;
      ++count;
    }
    // Random off-diagonal attention up to the density target.
    while (count < per_row_target) {
      const auto c = static_cast<std::size_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(seq)));
      if (!taken[c]) {
        taken[c] = 1;
        ++count;
      }
    }
    for (int c = 0; c < seq; ++c) {
      if (taken[static_cast<std::size_t>(c)]) out.col_idx.push_back(c);
    }
    out.row_ptr.push_back(static_cast<std::int32_t>(out.col_idx.size()));
  }
  out.values.assign(out.col_idx.size() * static_cast<std::size_t>(v),
                    half_t(1.0f));
  return out;
}

}  // namespace vsparse
