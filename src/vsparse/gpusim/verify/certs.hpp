// The `vsparse-static-v1` certificate store: one verdict per (kernel,
// shape class, architecture preset), produced by certify() and written
// as JSON for CI (validated by tools/validate_static_report.py).
#pragma once

#include <string>
#include <vector>

#include "vsparse/gpusim/config.hpp"
#include "vsparse/gpusim/verify/shape_class.hpp"
#include "vsparse/gpusim/verify/verifier.hpp"

namespace vsparse::verify {

inline constexpr const char* kCertStoreVersion = "vsparse-static-v1";

/// One certified (kernel, shape class, arch) verdict.
struct CertEntry {
  std::string kernel;  ///< target name ("spmm_octet")
  std::string arch;    ///< arch preset name ("volta-v100")
  ShapeClass cls;
  Verdict verdict;
};

/// Certifies every target over every class on every architecture,
/// spreading (target, architecture) pairs over a few host threads.
/// Entries come back sorted by (kernel, arch, class name), identical
/// for any thread count.
std::vector<CertEntry> certify(const std::vector<Target>& targets,
                               const std::vector<ShapeClass>& classes,
                               const std::vector<gpusim::DeviceConfig>& archs);

/// The store as `vsparse-static-v1` JSON, entries in the given order.
std::string certs_json(const std::vector<CertEntry>& entries);

/// Writes certs_json(entries) to `path`; raises kBadDispatch on I/O
/// failure.
void save_certs(const std::string& path, const std::vector<CertEntry>& entries);

}  // namespace vsparse::verify
