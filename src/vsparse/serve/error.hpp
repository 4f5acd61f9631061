// Structured error taxonomy for the serving layer.
//
// Every failure a long-lived vsparse process can hit — ECC
// detected-uncorrectable upsets, watchdog timeouts, malformed input
// encodings, allocator overflow/exhaustion, bad dispatch requests,
// admission-control rejections — is classified under one ErrorCode
// with two machine-readable properties the Supervisor's policy engine
// keys on:
//
//   retryable         — a re-run of the *same* kernel may succeed
//                       (transient upsets: ECC detections, ABFT
//                       exhaustion under a transient storm).
//   fallback_eligible — a *different* algorithm rung may succeed
//                       (timeouts, per-algorithm failures, memory
//                       pressure).  Not eligible: malformed inputs and
//                       config errors, which fail every rung the same
//                       way.
//
// vsparse::Error is the common base; the pre-existing structured
// throws (gpusim::EccError, gpusim::LaunchTimeoutError) re-base onto
// it so one `catch (const vsparse::Error&)` is the whole fault
// boundary.  This header is a dependency leaf (stdexcept/string only)
// so gpusim/ and formats/ can adopt the taxonomy without layering
// cycles.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace vsparse {

enum class ErrorCode : std::uint8_t {
  kMalformedFormat = 0,  ///< input encoding violates a format invariant
  kBadDispatch,          ///< invalid algorithm/options combination
  kAllocOverflow,        ///< size arithmetic would overflow the allocator
  kOutOfMemory,          ///< simulated DRAM exhausted
  kQuotaExceeded,        ///< request footprint exceeds the serve quota
  kQueueFull,            ///< tenant backlog full at arrival (load shed)
  kDeadlineExceeded,     ///< SLO deadline passed before launch (load shed)
  kEccUncorrectable,     ///< SEC-DED detected a double-bit upset
  kLaunchTimeout,        ///< watchdog per-CTA op budget exceeded
  kAbftExhausted,        ///< ABFT retries spent, tiles still corrupted
  kDeviceLost,           ///< whole-device fault domain failed permanently
  kInternal,             ///< unclassified invariant violation
  kNumCodes
};

constexpr int kNumErrorCodes = static_cast<int>(ErrorCode::kNumCodes);

/// Stable machine-readable name ("ecc_uncorrectable", ...).
const char* error_code_name(ErrorCode code);

/// May an identical re-run succeed?  (Taxonomy property, not per-throw.)
bool error_code_retryable(ErrorCode code);

/// May a different algorithm rung succeed?
bool error_code_fallback_eligible(ErrorCode code);

/// The common base of every classified vsparse failure.  `site` names
/// the throwing subsystem ("gpusim.ecc", "formats.smtx", ...) with a
/// stable string so reports stay byte-identical across thread counts
/// — free-text detail lives only in what().
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, std::string site, const std::string& what)
      : std::runtime_error(what), code_(code), site_(std::move(site)) {}

  ErrorCode code() const { return code_; }
  const std::string& site() const { return site_; }
  bool retryable() const { return error_code_retryable(code_); }
  bool fallback_eligible() const { return error_code_fallback_eligible(code_); }

 private:
  ErrorCode code_;
  std::string site_;
};

}  // namespace vsparse

/// Throw a classified vsparse::Error with an ostream-built message:
///   VSPARSE_RAISE(ErrorCode::kOutOfMemory, "gpusim.alloc",
///                 "want " << bytes << "B");
#define VSPARSE_RAISE(code, site, msg)                                \
  do {                                                                \
    std::ostringstream vsparse_raise_os_;                             \
    vsparse_raise_os_ << msg;                                         \
    throw ::vsparse::Error((code), (site), vsparse_raise_os_.str());  \
  } while (0)

/// Guard form: raise `code` unless `cond` holds.
#define VSPARSE_CHECK_RAISE(cond, code, site, msg) \
  do {                                             \
    if (!(cond)) VSPARSE_RAISE((code), (site), msg); \
  } while (0)
