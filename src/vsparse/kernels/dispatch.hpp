// High-level dispatch API — the cuSPARSE-style entry points a
// downstream user calls without choosing a kernel by hand.
//
//   spmm(dev, a, b, c);                                  // auto-select
//   spmm(dev, a, b, c, {.algorithm = SpmmAlgorithm::kOctet,
//                       .abft = AbftOptions{},
//                       .sim = {.threads = 8}});
//   sddmm(dev, a, b, mask, out, {.sim = {.threads = 4}});
//
// One descriptor struct per operation bundles everything a call can
// vary — algorithm, optional ABFT fault tolerance, and the engine's
// SimOptions (threads, watchdog, per-SM stats, tracing) — so adding a
// knob never multiplies the overload set again.
//
// Selection rule (documented, overridable), resolve_auto_spmm /
// resolve_auto_sddmm in kernels/registry.hpp:
//   * V in {2,4,8}  -> TCU-based 1-D Octet Tiling (the paper's kernel)
//   * V == 1        -> FPU 1-D subwarp tiling (Sputnik semantics; the
//                      TCU mappings need at least 2-wide vectors)
//   * Algorithm::k* -> force a specific implementation (for studies)
//
// Supervised execution (retries, the degradation ladder, admission)
// lives one layer up, in serve::Supervisor, which resolves kAuto by
// the same rule.  The algorithm enums and the kernel metadata behind
// every branch live in kernels/registry.hpp; this header stays the
// stable entry-point surface.  All entry points return the KernelRun
// (counters + launch shape) so callers keep full observability; the
// SpMM host round trip returns a HostRun carrying the downloaded
// result *and* the KernelRun.
#pragma once

#include <optional>

#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/kernels/api.hpp"
#include "vsparse/kernels/registry.hpp"

namespace vsparse::kernels {

/// Everything one spmm() call can vary.
struct SpmmOptions {
  SpmmAlgorithm algorithm = SpmmAlgorithm::kAuto;

  /// When set, the launch runs fault-tolerant: the octet kernel wrapped
  /// in ABFT checksum verification and per-tile recompute (kernels/
  /// spmm/spmm_octet_abft.hpp).  Only the octet algorithm has an ABFT
  /// variant, so `algorithm` must be kAuto (with V >= 2) or kOctet.
  /// The recovery outcome lands in the returned KernelRun::abft.
  std::optional<AbftOptions> abft;

  /// Engine options: threads, watchdog, per-SM stats, tracing.
  gpusim::SimOptions sim;
};

/// Everything one sddmm() call can vary.  No SDDMM kernel has an ABFT
/// variant, so there is no `abft` field.
struct SddmmOptions {
  SddmmAlgorithm algorithm = SddmmAlgorithm::kAuto;
  gpusim::SimOptions sim;
};

/// The DispatchShape kAuto and the serving ladder resolve against for
/// one SpMM call's operands — O(1) host-side metadata only.
DispatchShape spmm_dispatch_shape(const CvsDevice& a,
                                  const DenseDevice<half_t>& b);

/// Likewise for SDDMM (the mask is the sparse operand; N is its cols).
DispatchShape sddmm_dispatch_shape(const DenseDevice<half_t>& a,
                                   const CvsDevice& mask);

/// C[MxN] = A_cvs[MxK] * B[KxN] (half, row-major B/C).
KernelRun spmm(gpusim::Device& dev, const CvsDevice& a,
               const DenseDevice<half_t>& b, DenseDevice<half_t>& c,
               const SpmmOptions& options = {});

/// out_values = (A[MxK] * B[KxN]) ⊙ mask in mask storage order
/// (A row-major, B column-major).
KernelRun sddmm(gpusim::Device& dev, const DenseDevice<half_t>& a,
                const DenseDevice<half_t>& b, const CvsDevice& mask,
                gpusim::Buffer<half_t>& out_values,
                const SddmmOptions& options = {});

/// What the host-side round trip produced: the downloaded result plus
/// the full KernelRun (counters, launch shape, ABFT outcome) — so
/// quickstart-style callers can report cost/speedup without dropping
/// to the device API.
template <class R>
struct HostRun {
  R result;
  KernelRun run;
};

/// Convenience: full host-side round trip — encode, upload, run, and
/// download.  Intended for quickstarts and tests; steady-state users
/// should keep operands resident.
HostRun<DenseMatrix<half_t>> spmm_host(const Cvs& a,
                                       const DenseMatrix<half_t>& b,
                                       const SpmmOptions& options = {});

}  // namespace vsparse::kernels
