#include "vsparse/gpusim/verify/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "vsparse/formats/generate.hpp"
#include "vsparse/gpusim/engine/thread_pool.hpp"
#include "vsparse/gpusim/sanitizer/report.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/registry.hpp"
#include "vsparse/kernels/softmax/sparse_softmax.hpp"

namespace vsparse::verify {

namespace {

/// A store up to this many bytes past the end of an array lands in its
/// dead guard: wider than a 32-lane x 16 B warp op and than four rows
/// of the widest class matrix (2048 halves).
constexpr std::size_t kGuardBytes = 16 << 10;

/// Host threads certify() uses: one per hardware thread, at most 8
/// (each holds one probe device of up to ~50 MB).
constexpr std::size_t kMaxWorkers = 8;

// ---- runners -------------------------------------------------------

void run_spmm(const kernels::KernelDesc& desc, ProbeDevice& pd,
              const Probe& p) {
  const ShapeCorner& s = p.shape;
  const gpusim::SimOptions sim;  // inherits the probe device's sanitizer
  // Only the operand in the desc's format is uploaded; `a` keeps the
  // shape metadata either way.
  CvsDevice a{.rows = s.m, .cols = s.k, .v = s.v};
  BlockedEllDevice ell;
  DenseDevice<half_t> dense_a;
  switch (desc.format) {
    case kernels::OperandFormat::kCvs:
      a = pd.cvs(p.sparse);
      break;
    case kernels::OperandFormat::kBlockedEll:
      ell = pd.ell(BlockedEll::from_dense(p.sparse.to_dense(), s.v));
      break;
    case kernels::OperandFormat::kDense:
      dense_a = pd.dense<half_t>(s.m, s.k, Layout::kRowMajor, "a");
      break;
  }
  const DenseDevice<half_t> b =
      pd.dense<half_t>(s.k, s.n, Layout::kRowMajor, "b");
  DenseDevice<half_t> c = pd.dense<half_t>(s.m, s.n, Layout::kRowMajor, "c");
  desc.spmm_launch(
      kernels::SpmmCall{pd.dev(), a, b, c, sim, nullptr, &ell, &dense_a});
}

void run_sddmm(const kernels::KernelDesc& desc, ProbeDevice& pd,
               const Probe& p) {
  const ShapeCorner& s = p.shape;
  const gpusim::SimOptions sim;
  const CvsDevice mask = pd.cvs(p.sparse);
  const DenseDevice<half_t> a =
      pd.dense<half_t>(s.m, s.k, Layout::kRowMajor, "a");
  const DenseDevice<half_t> b =
      pd.dense<half_t>(s.k, s.n, Layout::kColMajor, "b");
  gpusim::Buffer<half_t> out =
      pd.alloc<half_t>(p.sparse.values.size(), "out_values");
  desc.sddmm_launch(kernels::SddmmCall{pd.dev(), a, b, mask, out, sim});
}

void run_hgemm(ProbeDevice& pd, const Probe& p) {
  const ShapeCorner& s = p.shape;
  const DenseDevice<half_t> a =
      pd.dense<half_t>(s.m, s.k, Layout::kRowMajor, "a");
  const DenseDevice<half_t> b =
      pd.dense<half_t>(s.k, s.n, Layout::kRowMajor, "b");
  DenseDevice<half_t> c = pd.dense<half_t>(s.m, s.n, Layout::kRowMajor, "c");
  kernels::hgemm_tcu(pd.dev(), a, b, c);
}

void run_sgemm(ProbeDevice& pd, const Probe& p) {
  const ShapeCorner& s = p.shape;
  const DenseDevice<float> a =
      pd.dense<float>(s.m, s.k, Layout::kRowMajor, "a");
  const DenseDevice<float> b =
      pd.dense<float>(s.k, s.n, Layout::kRowMajor, "b");
  DenseDevice<float> c = pd.dense<float>(s.m, s.n, Layout::kRowMajor, "c");
  kernels::sgemm_fpu(pd.dev(), a, b, c);
}

void run_sparse_softmax(ProbeDevice& pd, const Probe& p) {
  const CvsDevice pattern = pd.cvs(p.sparse);
  const gpusim::Buffer<half_t> in =
      pd.alloc<half_t>(p.sparse.values.size(), "in");
  gpusim::Buffer<half_t> out = pd.alloc<half_t>(p.sparse.values.size(), "out");
  kernels::sparse_softmax(pd.dev(), pattern, in, out, 1.0f);
}

void run_dense_softmax(ProbeDevice& pd, const Probe& p) {
  DenseDevice<half_t> mat =
      pd.dense<half_t>(p.shape.m, p.shape.n, Layout::kRowMajor, "mat");
  kernels::dense_softmax(pd.dev(), mat, 1.0f);
}

// ---- probes --------------------------------------------------------

/// Columns of the target's CVS operand at `corner`.
int sparse_cols(const Target& target, const ShapeCorner& corner) {
  return target.operand == SparseOperand::kLhs ? corner.k : corner.n;
}

/// (vec_row, count) of every probe of a corner, the empty matrix first.
std::vector<std::pair<int, int>> probe_plan(const Target& target,
                                            const ShapeCorner& corner) {
  if (target.operand == SparseOperand::kNone) return {{0, 0}};
  const int cols = sparse_cols(target, corner);
  const int last_row = corner.m / corner.v - 1;
  std::vector<std::pair<int, int>> plan{{0, 0}};
  for (int row : {0, last_row}) {
    for (int count : {cols, cols - 1}) {
      const std::pair<int, int> probe{row, count};
      if (row >= 0 && count > 0 &&
          std::find(plan.begin(), plan.end(), probe) == plan.end()) {
        plan.push_back(probe);
      }
    }
  }
  return plan;
}

/// Device bytes one probe at `s` may need: dense operands of at most
/// 4-byte elements, twice over (a re-encoded LHS, a split-K workspace),
/// plus the guards.
std::size_t probe_capacity(const ShapeCorner& s) {
  const std::size_t m = static_cast<std::size_t>(s.m);
  const std::size_t k = static_cast<std::size_t>(s.k);
  const std::size_t n = static_cast<std::size_t>(s.n);
  return 8 * (m * k + k * n + 2 * m * n) + 32 * (kGuardBytes + 256) +
         (std::size_t{1} << 20);
}

/// The simulated device every probe of one verify_target call runs on,
/// reset between probes, with all four sanitizer tools reporting into
/// `sink`.
struct ProbeRig {
  gpusim::Sanitizer sink;
  gpusim::Device dev;

  ProbeRig(const gpusim::DeviceConfig& hw, std::size_t capacity)
      : dev([&] {
          gpusim::DeviceConfig cfg = hw;
          cfg.dram_capacity = capacity;
          return cfg;
        }()) {
    gpusim::SimOptions sim;
    sim.threads = 1;
    sim.sanitize.sink = &sink;  // every tool on
    dev.set_sim_options(sim);
  }
};

struct CornerOutcome {
  bool rejected = true;  ///< every probe threw before any launch
  bool refuted = false;
  std::string site;
  std::string detail;
};

/// The first sanitizer report of the probe, rendered; empty when clean.
std::string first_report(const gpusim::Sanitizer& sink) {
  for (const gpusim::LaunchSanitizerRecord& launch : sink.launches()) {
    if (launch.reports.empty()) continue;
    const std::string report = gpusim::to_string(launch.reports.front());
    return launch.kernel.empty() ? report : launch.kernel + ": " + report;
  }
  return {};
}

/// Runs one probe; returns false when the target rejected it.
bool run_probe(const Target& target, const ShapeCorner& corner, int vec_row,
               int count, ProbeRig& rig, CornerOutcome& out) {
  rig.dev.reset();
  rig.sink.clear();
  Probe probe{corner, {}, vec_row, count};
  std::string thrown;
  try {
    if (target.operand != SparseOperand::kNone) {
      probe.sparse = make_corner_cvs(corner.m, sparse_cols(target, corner),
                                     corner.v, vec_row, count);
    }
    ProbeDevice pd(rig.dev);
    target.run(pd, probe);
  } catch (const std::exception& e) {
    if (rig.sink.num_launches() == 0) return false;  // safe by rejection
    thrown = e.what();
  }
  const std::string report = first_report(rig.sink);
  if (report.empty() && thrown.empty()) return true;
  out.refuted = true;
  out.site = probe.str();
  out.detail = report.empty() ? "threw after launching: " + thrown : report;
  return true;
}

CornerOutcome run_corner(const Target& target, const ShapeCorner& corner,
                         ProbeRig& rig) {
  CornerOutcome out;
  for (const auto& [row, count] : probe_plan(target, corner)) {
    if (run_probe(target, corner, row, count, rig, out)) out.rejected = false;
    if (out.refuted) break;
  }
  return out;
}

}  // namespace

ProbeDevice::ProbeDevice(gpusim::Device& dev) : dev_(dev) { guard(); }

void ProbeDevice::guard() {
  dev_.free(dev_.alloc<std::byte>(kGuardBytes, "verify.guard"));
}

CvsDevice ProbeDevice::cvs(const Cvs& m) {
  CvsDevice out;
  out.row_ptr = upload<std::int32_t>(m.row_ptr, "cvs.row_ptr");
  out.col_idx =
      upload<std::int32_t>(m.col_idx, "cvs.col_idx", kCvsColIdxTailSlack);
  out.values = upload<half_t>(m.values, "cvs.values");
  out.rows = m.rows;
  out.cols = m.cols;
  out.v = m.v;
  return out;
}

BlockedEllDevice ProbeDevice::ell(const BlockedEll& m) {
  BlockedEllDevice out;
  out.col_idx = upload<std::int32_t>(m.col_idx, "ell.col_idx");
  out.values = upload<half_t>(m.values, "ell.values");
  out.rows = m.rows;
  out.cols = m.cols;
  out.block = m.block;
  out.blocks_per_row = m.blocks_per_row;
  return out;
}

std::string Probe::str() const {
  std::ostringstream os;
  os << "probe: ";
  if (sparse.row_ptr.empty()) {
    os << "dense operands";
  } else if (count == 0) {
    os << "empty " << sparse.rows << "x" << sparse.cols << " operand";
  } else {
    os << "vector-row " << vec_row << " of " << sparse.vec_rows()
       << " holding " << count << " of " << sparse.cols << " vectors";
  }
  return os.str();
}

const std::vector<Target>& verification_targets() {
  static const std::vector<Target> kTargets = [] {
    std::vector<Target> out;
    for (const kernels::KernelDesc& desc : kernels::kernel_registry()) {
      Target t;
      t.name = desc.name;
      if (desc.op == kernels::KernelOp::kSpmm) {
        t.operand = desc.format == kernels::OperandFormat::kDense
                        ? SparseOperand::kNone
                        : SparseOperand::kLhs;
        if (desc.spmm_launch != nullptr) {
          t.run = [&desc](ProbeDevice& pd, const Probe& p) {
            run_spmm(desc, pd, p);
          };
        }
      } else {
        t.operand = SparseOperand::kMask;
        if (desc.sddmm_launch != nullptr) {
          t.run = [&desc](ProbeDevice& pd, const Probe& p) {
            run_sddmm(desc, pd, p);
          };
        }
      }
      out.push_back(std::move(t));
    }
    out.push_back({"hgemm_tcu", SparseOperand::kNone, &run_hgemm});
    out.push_back({"sgemm_fpu", SparseOperand::kNone, &run_sgemm});
    out.push_back(
        {"sparse_softmax", SparseOperand::kMask, &run_sparse_softmax});
    out.push_back({"dense_softmax", SparseOperand::kNone, &run_dense_softmax});
    return out;
  }();
  return kTargets;
}

std::vector<Verdict> verify_target(const Target& target,
                                   const std::vector<ShapeClass>& classes,
                                   const gpusim::DeviceConfig& hw) {
  std::size_t capacity = 0;
  for (const ShapeClass& cls : classes) {
    for (const ShapeCorner& corner : cls.corners()) {
      capacity = std::max(capacity, probe_capacity(corner));
    }
  }
  ProbeRig rig(hw, capacity);
  // Corner outcomes keyed by extents (and V, for targets with a CVS
  // operand): density never enters a probe.
  using CornerKey = std::tuple<int, int, int, int>;
  std::map<CornerKey, CornerOutcome> memo;
  std::vector<Verdict> verdicts;
  for (const ShapeClass& cls : classes) {
    Verdict verdict;
    if (!target.run) {
      verdict.site = "verify.runner";
      verdict.detail = "no corner runner for " + target.name;
      verdicts.push_back(std::move(verdict));
      continue;
    }
    verdict.kind = VerdictKind::kProved;
    std::vector<CornerKey> seen;
    for (ShapeCorner corner : cls.corners()) {
      corner.density = cls.d_lo;
      const int v = target.operand == SparseOperand::kNone ? 0 : corner.v;
      const CornerKey key{corner.m, corner.k, corner.n, v};
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      auto it = memo.find(key);
      if (it == memo.end()) {
        it = memo.emplace(key, run_corner(target, corner, rig)).first;
      }
      const CornerOutcome& outcome = it->second;
      ++verdict.corners_checked;
      if (outcome.rejected) ++verdict.corners_rejected;
      if (outcome.refuted) {
        verdict.kind = VerdictKind::kRefuted;
        verdict.counterexample = corner;
        verdict.site = outcome.site;
        verdict.detail = outcome.detail;
        break;  // first counterexample wins
      }
    }
    verdicts.push_back(std::move(verdict));
  }
  return verdicts;
}

std::vector<CertEntry> certify(const std::vector<Target>& targets,
                               const std::vector<ShapeClass>& classes,
                               const std::vector<gpusim::DeviceConfig>& archs) {
  const std::size_t jobs = targets.size() * archs.size();
  std::vector<std::vector<Verdict>> results(jobs);
  std::atomic<std::size_t> next{0};
  const std::size_t workers = std::clamp<std::size_t>(
      std::min<std::size_t>(jobs, std::thread::hardware_concurrency()), 1,
      kMaxWorkers);
  // Probes launch serially (ProbeRig), so they never re-enter the pool.
  gpusim::ThreadPool::instance().run(static_cast<int>(workers), [&] {
    for (std::size_t j; (j = next.fetch_add(1)) < jobs;) {
      results[j] = verify_target(targets[j % targets.size()], classes,
                                 archs[j / targets.size()]);
    }
  });

  std::vector<CertEntry> entries;
  entries.reserve(jobs * classes.size());
  for (std::size_t j = 0; j < jobs; ++j) {
    for (std::size_t c = 0; c < classes.size(); ++c) {
      entries.push_back({targets[j % targets.size()].name,
                         archs[j / targets.size()].arch, classes[c],
                         std::move(results[j][c])});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const CertEntry& a, const CertEntry& b) {
              if (a.kernel != b.kernel) return a.kernel < b.kernel;
              if (a.arch != b.arch) return a.arch < b.arch;
              return a.cls.name < b.cls.name;
            });
  return entries;
}

}  // namespace vsparse::verify
