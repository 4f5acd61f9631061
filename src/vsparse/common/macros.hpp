// Core error-handling and annotation macros shared by all vectorsparse
// modules.  Runtime invariants use VSPARSE_CHECK (always on); hot-path
// invariants use VSPARSE_DCHECK (debug builds only).
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace vsparse {

/// Exception thrown by VSPARSE_CHECK failures.  Deriving from
/// std::logic_error: a failed check is a programming error, not an
/// environmental condition.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "VSPARSE_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

}  // namespace detail

/// Host cache-line size.  Blocks that different host threads write on
/// every simulated op (the engine's per-SM SmContext, SmTrace and
/// SmSanitizer) are aligned to it, so two SMs never share a line and
/// workers running neighbouring SMs do not bounce it between cores.
inline constexpr std::size_t kHostCacheLineBytes = 64;

}  // namespace vsparse

/// Always-on invariant check.  Throws vsparse::CheckError on failure so
/// tests can assert on misuse and applications can fail loudly.
#define VSPARSE_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::vsparse::detail::check_failed(#cond, __FILE__, __LINE__, {});    \
    }                                                                    \
  } while (0)

/// Always-on invariant check with a streamed message, e.g.
/// `VSPARSE_CHECK_MSG(a == b, "a=" << a << " b=" << b)`.
#define VSPARSE_CHECK_MSG(cond, stream_expr)                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::ostringstream vsparse_check_os_;                              \
      vsparse_check_os_ << stream_expr;                                  \
      ::vsparse::detail::check_failed(#cond, __FILE__, __LINE__,         \
                                      vsparse_check_os_.str());          \
    }                                                                    \
  } while (0)

/// Debug-only check for hot paths (warp-level simulator internals).
#ifndef NDEBUG
#define VSPARSE_DCHECK(cond) VSPARSE_CHECK(cond)
#else
#define VSPARSE_DCHECK(cond) \
  do {                       \
  } while (0)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define VSPARSE_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define VSPARSE_ALWAYS_INLINE inline
#endif
