// ServeReport — the attempt-by-attempt record of one supervised
// request: every rung tried, every retry, every backoff, and the
// final outcome, all classified by the error taxonomy.
//
// Determinism contract: to_json() contains only what classifies an
// attempt — rung names, attempt ordinals, simulated backoff cycles,
// taxonomy codes and stable site strings.  No wall-clock time and no
// counters.  No free-text messages either: a message's wording is not
// part of the error taxonomy (a watchdog message, for one, embeds a
// per-SM progress dump of engine internals), so a report that carried
// it would change whenever a diagnostic's wording did.  Same seed +
// policy => byte-identical JSON at any --threads=N.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/kernels/api.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::serve {

/// The degradation-ladder rungs, in canonical fallback order for SpMM.
/// SDDMM uses the subset {kOctet, kWmmaWarp, kFpuSubwarp, kCsrFine};
/// kWmmaWarp is SDDMM's alone.
enum class ServeRung : std::uint8_t {
  kOctet = 0,   ///< TCU 1-D octet tiling — the paper's kernel
  kOctetAbft,   ///< octet + ABFT checksum verify/recompute
  kBlockedEll,  ///< re-encode to Blocked-ELL, cuSPARSE-style kernel
  kDenseGemm,   ///< decode to dense, cublasHgemm stand-in
  kFpuSubwarp,  ///< FPU reference tiling (any V, no TCU)
  kCsrFine,     ///< fine-grained V=1 baseline
  kWmmaWarp,    ///< classic warp-level WMMA mapping (§6.2)
  kNumRungs
};

const char* serve_rung_name(ServeRung rung);

/// One kernel attempt (or an admission rejection, rung-less).
struct ServeAttempt {
  ServeRung rung = ServeRung::kNumRungs;
  int attempt = 0;  ///< 0 = first try on this rung, k = k-th retry
  std::uint64_t backoff_cycles = 0;  ///< simulated wait before this try
  bool ok = false;
  ErrorCode code = ErrorCode::kInternal;  ///< valid when !ok
  std::string site;                       ///< stable throw site, "" when ok
};

/// Everything the supervisor did for one request.
struct ServeReport {
  std::uint64_t request_id = 0;
  std::string op;  ///< "spmm" | "sddmm"
  bool completed = false;
  bool rejected = false;  ///< failed admission; nothing launched
  ServeRung final_rung = ServeRung::kNumRungs;  ///< rung that completed
  int retries = 0;    ///< same-rung re-attempts across all rungs
  int fallbacks = 0;  ///< ladder hops taken
  std::uint64_t backoff_cycles = 0;  ///< total simulated backoff
  std::vector<ServeAttempt> attempts;
  bool has_error = false;  ///< request ultimately failed
  ErrorCode final_code = ErrorCode::kInternal;
  std::string final_site;

  /// The successful run (counters + launch shape).  In-memory only:
  /// the report records what the supervisor did, not what the kernel
  /// counted.
  kernels::KernelRun run;

  /// Deterministic single-line JSON (see header comment).
  std::string to_json() const;
};

/// {"schema":"vsparse-serve-v1",...} wrapping one report line each —
/// the artifact `serve_load --serve-report=FILE` writes.
std::string reports_json(const std::vector<ServeReport>& reports);

}  // namespace vsparse::serve
