#include "vsparse/serve/error.hpp"

namespace vsparse {
namespace {

struct CodeRow {
  const char* name;
  bool retryable;
  bool fallback_eligible;
};

// One row per ErrorCode, in enum order.  retryable == "an identical
// re-run may observe different (clean) data"; fallback_eligible ==
// "another rung may dodge the failure".  Malformed inputs and config
// errors fail every rung identically, so they are neither.
constexpr CodeRow kCodes[kNumErrorCodes] = {
    /* kMalformedFormat  */ {"malformed_format", false, false},
    /* kBadDispatch      */ {"bad_dispatch", false, false},
    /* kAllocOverflow    */ {"alloc_overflow", false, false},
    /* kOutOfMemory      */ {"out_of_memory", false, true},
    /* kQuotaExceeded    */ {"quota_exceeded", false, false},
    /* kQueueFull        */ {"queue_full", false, false},
    /* kDeadlineExceeded */ {"deadline_exceeded", false, false},
    /* kEccUncorrectable */ {"ecc_uncorrectable", true, true},
    /* kLaunchTimeout    */ {"launch_timeout", false, true},
    /* kAbftExhausted    */ {"abft_exhausted", true, true},
    /* kDeviceLost       */ {"device_lost", false, false},
    /* kInternal         */ {"internal", false, false},
};

const CodeRow& row(ErrorCode code) {
  const int i = static_cast<int>(code);
  return kCodes[(i >= 0 && i < kNumErrorCodes)
                    ? i
                    : static_cast<int>(ErrorCode::kInternal)];
}

}  // namespace

const char* error_code_name(ErrorCode code) { return row(code).name; }

bool error_code_retryable(ErrorCode code) { return row(code).retryable; }

bool error_code_fallback_eligible(ErrorCode code) {
  return row(code).fallback_eligible;
}

}  // namespace vsparse
