// Shape-class verifier — certifies a kernel over a ShapeClass by
// running the real kernel, with every sanitizer tool on, at each extent
// corner of the class on adversarial operands.
//
// Probes.  Per corner (M, K, N) of the class, a target that reads a
// CVS operand (the SpMM LHS, M x K, or the SDDMM/softmax mask, M x N)
// runs on the empty matrix, then on the first and on the last
// vector-row holding `cols` and `cols - 1` vectors with every other
// row empty (make_corner_cvs).  That row's extent ends at the last
// element of col_idx and values, the full row gathers columns 0 and
// cols-1, and the odd count exercises pair-rounded index loads.
// Every address a kernel forms is monotone in the CTA coordinates, the
// loop trip, the per-row count, the row's placement in the arrays and
// the gather column, so these extremes bound every member of the
// class; each CTA and each loop trip of the probe runs for real.
// Density changes none of it, so corners dedupe across density, and a
// target that reads no CVS operand (dense GEMM, dense softmax) runs
// once per corner, whatever V.
//
// Guards.  ProbeDevice places every array between freed guard
// allocations.  The boundscheck charges an address to the nearest
// allocation below it, so without guards a store just past a buffer
// whose size is a multiple of 256 B would land in a live neighbour and
// pass; with a dead guard there it is a use-after-free report.
//
// Verdicts, per (target, class, architecture):
//   kProved    every probe ran without a sanitizer report, or threw
//              before the sanitizer recorded any launch (the target's
//              preconditions rejected the shape — safe by rejection;
//              a corner counts as rejected when all its probes were);
//   kRefuted   a probe produced a sanitizer report, or threw after a
//              launch started.  The counterexample is the class corner;
//              `site` names the probe and `detail` the first report;
//   kUnknown   the target has no runner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/gpusim/verify/shape_class.hpp"

namespace vsparse::verify {

enum class VerdictKind : std::uint8_t { kProved, kRefuted, kUnknown };

struct Verdict {
  VerdictKind kind = VerdictKind::kUnknown;
  /// The refuting class corner (kRefuted only).
  ShapeCorner counterexample;
  /// The refuting probe (kRefuted) or why the verdict is unknown.
  std::string site;
  std::string detail;
  int corners_checked = 0;
  int corners_rejected = 0;  ///< safe-by-precondition corners
};

/// A device whose arrays each sit between freed guard allocations (see
/// the header comment).  Every array a runner uploads goes through it.
class ProbeDevice {
 public:
  explicit ProbeDevice(gpusim::Device& dev);

  gpusim::Device& dev() { return dev_; }

  /// A zeroed array of `count` elements declaring `slack_elems` of
  /// vector-load tail slack, followed by a guard.
  template <class T>
  gpusim::Buffer<T> alloc(std::size_t count, const char* name,
                          std::size_t slack_elems = 0) {
    gpusim::Buffer<T> buf = dev_.alloc<T>(count, name, slack_elems * sizeof(T));
    guard();
    return buf;
  }

  /// A zeroed rows x cols matrix with the dense operands' tail slack.
  template <class T>
  DenseDevice<T> dense(int rows, int cols, Layout layout, const char* name) {
    const std::size_t count =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    return DenseDevice<T>{alloc<T>(count, name, kDenseTailSlack), rows, cols,
                          layout == Layout::kRowMajor ? cols : rows, layout};
  }

  /// The three CVS arrays one at a time, with the slack to_device
  /// declares.
  CvsDevice cvs(const Cvs& m);
  BlockedEllDevice ell(const BlockedEll& m);

 private:
  template <class T>
  gpusim::Buffer<T> upload(std::span<const T> src, const char* name,
                           std::size_t slack_elems = 0) {
    gpusim::Buffer<T> buf = dev_.alloc_copy<T>(src, name, slack_elems);
    guard();
    return buf;
  }
  void guard();

  gpusim::Device& dev_;
};

/// One probe of one class corner.
struct Probe {
  ShapeCorner shape;  ///< the class corner
  /// The corner operand (rows = M; cols = K for the SpMM LHS, N for a
  /// mask).  Empty for targets that read no CVS operand.
  Cvs sparse;
  int vec_row = 0;  ///< the populated vector-row
  int count = 0;    ///< vectors it holds (0: the empty matrix)

  std::string str() const;
};

/// Which CVS operand a target's probes vary.
enum class SparseOperand : std::uint8_t {
  kNone,  ///< dense operands only: one probe per corner, whatever V
  kLhs,   ///< the SpMM LHS, M x K
  kMask,  ///< the SDDMM / softmax mask, M x N
};

/// Uploads one probe's operands through `dev` and launches the target.
using TargetRun = std::function<void(ProbeDevice& dev, const Probe& probe)>;

struct Target {
  std::string name;
  SparseOperand operand = SparseOperand::kNone;
  TargetRun run;  ///< empty: no runner (verdict unknown)
};

/// The certified set: every registered kernel, run through its own
/// launch thunk (re-encoded to Blocked-ELL or dense the way the serving
/// ladder does), then the dense GEMM entry points and the softmax
/// kernels the fig05 suites run.
const std::vector<Target>& verification_targets();

/// Certifies `target` over each class on `hw`; one verdict per class,
/// in order.  Corners shared between classes run once.
std::vector<Verdict> verify_target(const Target& target,
                                   const std::vector<ShapeClass>& classes,
                                   const gpusim::DeviceConfig& hw);

/// One (kernel, shape class, architecture preset) verdict.
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

}  // namespace vsparse::verify
