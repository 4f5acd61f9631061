#include "vsparse/gpusim/cache.hpp"

#include <algorithm>
#include <bit>

namespace vsparse::gpusim {

namespace detail {

SetArray::SetArray(std::size_t capacity_bytes, int line_bytes,
                   int sector_bytes, int ways)
    : line_bytes_(line_bytes),
      sector_bytes_(sector_bytes),
      line_shift_(std::countr_zero(static_cast<unsigned>(line_bytes))),
      sector_shift_(std::countr_zero(static_cast<unsigned>(sector_bytes))),
      sectors_per_line_(line_bytes / sector_bytes),
      ways_(ways) {
  VSPARSE_CHECK(is_pow2(static_cast<std::uint64_t>(line_bytes)));
  VSPARSE_CHECK(is_pow2(static_cast<std::uint64_t>(sector_bytes)));
  VSPARSE_CHECK(line_bytes % sector_bytes == 0);
  VSPARSE_CHECK(sectors_per_line_ <= 32);
  VSPARSE_CHECK(ways >= 1);
  const std::size_t lines = capacity_bytes / static_cast<std::size_t>(line_bytes);
  VSPARSE_CHECK(lines % static_cast<std::size_t>(ways) == 0);
  sets_ = static_cast<int>(lines / static_cast<std::size_t>(ways));
  VSPARSE_CHECK(sets_ >= 1);
  const auto usets = static_cast<std::uint64_t>(sets_);
  if ((usets & (usets - 1)) == 0) sets_mask_ = usets - 1;
  sets_magic_ = ~std::uint64_t{0} / usets + 1;  // ceil(2^64 / sets_)
  tags_.assign(lines, kInvalidTag);
  valid_.assign(lines, 0);
  lru_.assign(lines, 0);
}

void SetArray::flush() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(valid_.begin(), valid_.end(), 0u);
  std::fill(lru_.begin(), lru_.end(), std::uint64_t{0});
}

}  // namespace detail

}  // namespace vsparse::gpusim
