// Tests for the .smtx reader/writer (DLMC's on-disk format).
#include <gtest/gtest.h>

#include <sstream>

#include "vsparse/formats/generate.hpp"
#include "vsparse/serve/error.hpp"
#include "vsparse/formats/smtx_io.hpp"

namespace vsparse {
namespace {

TEST(Smtx, ParsesCanonicalFile) {
  // The Fig. 8 example matrix as an smtx pattern.
  std::istringstream is(
      "3, 8, 6\n"
      "0 3 4 6\n"
      "0 2 6 3 1 6\n");
  SmtxPattern p = read_smtx(is);
  EXPECT_EQ(p.rows, 3);
  EXPECT_EQ(p.cols, 8);
  const std::vector<std::int32_t> rp = {0, 3, 4, 6};
  const std::vector<std::int32_t> ci = {0, 2, 6, 3, 1, 6};
  EXPECT_EQ(p.row_ptr, rp);
  EXPECT_EQ(p.col_idx, ci);
}

TEST(Smtx, AcceptsCommaSeparators) {
  std::istringstream is(
      "2, 4, 2\n"
      "0, 1, 2\n"
      "3, 0\n");
  SmtxPattern p = read_smtx(is);
  EXPECT_EQ(p.col_idx[0], 3);
}

TEST(Smtx, RejectsMalformedInput) {
  {
    std::istringstream is("3, 8\n");  // short header
    EXPECT_THROW(read_smtx(is), Error);  // kMalformedFormat
  }
  {
    std::istringstream is(
        "2, 4, 2\n"
        "0 1 2\n"
        "5 0\n");  // column 5 out of range
    EXPECT_THROW(read_smtx(is), Error);  // kMalformedFormat
  }
  {
    std::istringstream is(
        "2, 4, 2\n"
        "0 2 1\n"  // non-monotone row_ptr (and back != nnz)
        "1 0\n");
    EXPECT_THROW(read_smtx(is), Error);  // kMalformedFormat
  }
  {
    std::istringstream is(
        "2, 4, 3\n"
        "0 1 3\n"
        "1 0\n");  // col_idx shorter than nnz
    EXPECT_THROW(read_smtx(is), Error);  // kMalformedFormat
  }
}

TEST(Smtx, RoundTripThroughCvs) {
  Rng rng(1);
  Cvs original = make_cvs(64, 96, 4, 0.8, rng);
  SmtxPattern p = cvs_to_smtx(original);
  std::ostringstream os;
  write_smtx(os, p);
  std::istringstream is(os.str());
  SmtxPattern back = read_smtx(is);
  EXPECT_EQ(back.row_ptr, original.row_ptr);
  EXPECT_EQ(back.col_idx, original.col_idx);

  Rng rng2(2);
  Cvs rebuilt = smtx_to_cvs(back, 4, rng2);
  rebuilt.validate();
  EXPECT_EQ(rebuilt.rows, original.rows);
  EXPECT_EQ(rebuilt.cols, original.cols);
  EXPECT_EQ(rebuilt.nnz_vectors(), original.nnz_vectors());
}

TEST(Smtx, FileRoundTrip) {
  Rng rng(3);
  Cvs m = make_cvs(32, 64, 2, 0.7, rng);
  const std::string path = "/tmp/vsparse_test.smtx";
  write_smtx_file(path, cvs_to_smtx(m));
  SmtxPattern p = read_smtx_file(path);
  EXPECT_EQ(p.rows, m.vec_rows());
  EXPECT_EQ(p.col_idx, m.col_idx);
  EXPECT_THROW(read_smtx_file("/nonexistent/x.smtx"), Error);
}

}  // namespace
}  // namespace vsparse
