// ServeReport — the attempt-by-attempt record of one supervised
// request: every rung tried, every retry, every backoff, and the
// final outcome, all classified by the error taxonomy.
//
// Determinism contract: to_json() contains only thread-invariant
// fields — rung names, attempt ordinals, simulated backoff cycles,
// taxonomy codes and stable site strings.  No wall-clock time, no
// free-text messages (a watchdog message embeds a per-SM progress dump
// that legitimately varies with host scheduling), no L2/DRAM-split
// counters.  Same seed + policy => byte-identical JSON at any
// --threads=N.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vsparse/kernels/api.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::serve {

/// The degradation-ladder rungs, in canonical fallback order for SpMM.
/// SDDMM uses the subset {kOctet, kWmmaWarp, kFpuSubwarp, kCsrFine}.
enum class ServeRung : std::uint8_t {
  kOctet = 0,   ///< TCU 1-D octet tiling — the paper's kernel
  kOctetAbft,   ///< octet + ABFT checksum verify/recompute
  kBlockedEll,  ///< re-encode to Blocked-ELL, cuSPARSE-style kernel
  kDenseGemm,   ///< decode to dense, cublasHgemm stand-in
  kFpuSubwarp,  ///< FPU reference tiling (any V, no TCU)
  kCsrFine,     ///< fine-grained V=1 baseline
  kWmmaWarp,    ///< classic warp-level WMMA mapping
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

  /// The successful run (counters + launch shape).  In-memory only —
  /// deliberately not serialized (L2/DRAM counter splits are only
  /// bit-exact at threads=1).
  kernels::KernelRun run;

  /// Deterministic single-line JSON (see header comment).
  std::string to_json() const;
};

/// {"schema":"vsparse-serve-v1",...} wrapping one report line each —
/// the artifact `serve_load --serve-report=FILE` writes.
std::string reports_json(const std::vector<ServeReport>& reports);

}  // namespace vsparse::serve
