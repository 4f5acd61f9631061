// Batch workloads: spmm_dlmc (the Fig. 17 case grid) and attention_tcu
// (Fig. 20 attention heads), plus the serving-shape probe and the
// engine probes shared with the other workloads.
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "vsparse/bench/suite.hpp"
#include "vsparse/formats/blocked_ell.hpp"
#include "vsparse/formats/cvs.hpp"
#include "vsparse/formats/dense.hpp"
#include "vsparse/formats/generate.hpp"
#include "vsparse/formats/reference.hpp"
#include "vsparse/gpusim/device.hpp"
#include "vsparse/kernels/dense/gemm.hpp"
#include "vsparse/kernels/elementwise.hpp"
#include "vsparse/kernels/sddmm/sddmm_octet.hpp"
#include "vsparse/kernels/softmax/sparse_softmax.hpp"
#include "vsparse/kernels/spmm/spmm_blocked_ell.hpp"
#include "vsparse/kernels/spmm/spmm_fpu.hpp"
#include "vsparse/kernels/spmm/spmm_octet.hpp"
#include "vsparse/transformer/attention.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using vsparse::BlockedEll;
using vsparse::BlockedEllDevice;
using vsparse::Cvs;
using vsparse::CvsDevice;
using vsparse::DenseDevice;
using vsparse::DenseMatrix;
using vsparse::half_t;
using vsparse::Layout;
using vsparse::Rng;
using vsparse::bench::Scale;
using vsparse::bench::Shape;

// Output tolerances.  The SpMM/SDDMM kernels reproduce the references'
// fp32 K-ordered accumulation, so they are held to about one fp16 ulp;
// softmax uses the 2e-3 of tests/softmax_test.cpp.
constexpr float kSpmmAtol = 1e-3f;
constexpr float kSpmmRtol = 1e-3f;
constexpr float kSoftmaxAtol = 2e-3f;

constexpr std::size_t kMiB = std::size_t{1} << 20;

gpusim::DeviceConfig device_config(std::size_t dram_bytes) {
  gpusim::DeviceConfig cfg = gpusim::DeviceConfig::volta_v100();
  cfg.dram_capacity = dram_bytes;
  return cfg;
}

std::vector<half_t> download(const gpusim::Buffer<half_t>& buf) {
  const auto host = buf.host();
  return {host.begin(), host.end()};
}

std::uint64_t buffer_hash(const gpusim::Buffer<half_t>& buf) {
  const auto host = buf.host();
  return fnv1a(host.data(), host.size_bytes());
}

std::uint64_t cvs_bytes(const Cvs& m) {
  return (m.row_ptr.size() + m.col_idx.size()) * sizeof(std::int32_t) +
         m.values.size() * sizeof(half_t);
}

/// The same pattern with other values (a device output read back).
Cvs with_values(const Cvs& pattern, std::vector<half_t> values) {
  Cvs out;
  out.rows = pattern.rows;
  out.cols = pattern.cols;
  out.v = pattern.v;
  out.row_ptr = pattern.row_ptr;
  out.col_idx = pattern.col_idx;
  out.values = std::move(values);
  return out;
}

std::uint64_t compare(const std::vector<half_t>& got,
                      const std::vector<half_t>& want, float atol,
                      float rtol) {
  if (got.size() != want.size()) return std::max(got.size(), want.size());
  return count_mismatches(got.data(), want.data(), got.size(), atol, rtol);
}

std::vector<half_t> dense_values(const DenseMatrix<half_t>& m) {
  return {m.data().begin(), m.data().end()};
}

/// Thread-invariant counter fingerprint for the self-test: CTAs,
/// instructions, HMMA, L1 missed sectors, the L2 access total (not its
/// hit/miss split), shared-memory wavefronts and the output hash.
std::string fingerprint(const gpusim::KernelStats& s, std::uint64_t hash) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%llu %llu %llu %llu %llu %llu %016llx",
                static_cast<unsigned long long>(s.ctas_launched),
                static_cast<unsigned long long>(s.total_instructions()),
                static_cast<unsigned long long>(s.op(gpusim::Op::kHmma)),
                static_cast<unsigned long long>(s.l1_sector_misses),
                static_cast<unsigned long long>(s.l2_sector_hits +
                                                s.l2_sector_misses),
                static_cast<unsigned long long>(s.smem_wavefronts),
                static_cast<unsigned long long>(hash));
  return buf;
}

/// Model cycles of the cublasHgemm stand-in on (MxK)·(KxN), on a fresh
/// device (as bench::DenseBaseline does), counted under hgemm_tcu.
double hgemm_cycles(KernelBook& book, Tracer* tracer, int m, int k, int n,
                    int threads, bool first) {
  const std::size_t elems = static_cast<std::size_t>(m) * k +
                            static_cast<std::size_t>(k) * n +
                            static_cast<std::size_t>(m) * n;
  gpusim::Device dev(device_config(elems * sizeof(half_t) + 4 * kMiB));
  dev.set_sim_options({.threads = threads});
  auto a = dev.alloc<half_t>(static_cast<std::size_t>(m) * k);
  auto b = dev.alloc<half_t>(static_cast<std::size_t>(k) * n);
  auto c = dev.alloc<half_t>(static_cast<std::size_t>(m) * n);
  DenseDevice<half_t> da{a, m, k, k, Layout::kRowMajor};
  DenseDevice<half_t> db{b, k, n, n, Layout::kRowMajor};
  DenseDevice<half_t> dc{c, m, n, n, Layout::kRowMajor};
  const kernels::KernelRun run = book.call(
      "hgemm_tcu", tracer, first,
      [&] { return kernels::hgemm_tcu(dev, da, db, dc); });
  return book.cost(run, tracer, /*count_bound=*/false).cycles;
}

/// Per-request view of a batch workload: each case is one request whose
/// modeled latency is its paper-kernel cycles and whose deadline is the
/// dense baseline's cycles (a sparse kernel only pays off when it beats
/// cuBLAS).  Requests run back to back on one modeled device.
void batch_request_metrics(const std::vector<double>& latency_cycles,
                           const std::vector<double>& dense_cycles,
                           Metrics& e2e) {
  double total = 0.0;
  std::uint64_t met = 0;
  for (std::size_t i = 0; i < latency_cycles.size(); ++i) {
    total += latency_cycles[i];
    if (latency_cycles[i] < dense_cycles[i]) ++met;
  }
  const double n = static_cast<double>(latency_cycles.size());
  e2e["goodput_per_mtick"] = {total > 0 ? static_cast<double>(met) * 1e6 / total
                                        : 0.0,
                              "req/Mtick"};
  e2e["p50_latency_ticks"] = {interpolated_percentile(latency_cycles, 50),
                              "ticks"};
  e2e["p99_latency_ticks"] = {interpolated_percentile(latency_cycles, 99),
                              "ticks"};
  e2e["slo_met_frac"] = {n > 0 ? static_cast<double>(met) / n : 0.0, "frac"};
}

/// engine.outside_launch_s of a batch workload's untraced loop;
/// `inside_a_s` is the time it spent inside kernel calls.
void outside_launch(const LoopResult& a, double inside_a_s, Metrics& layers) {
  const double passes = static_cast<double>(a.executions) /
                        static_cast<double>(a.unit_wall_s.size());
  layers["engine.outside_launch_s"] = {(a.timed_s - inside_a_s) / passes,
                                       "s"};
}

// ---- spmm_dlmc ----------------------------------------------------------

struct SpmmOperand {
  int v = 1;
  Cvs cvs;
  CvsDevice cvs_dev;
  BlockedEll ell;  ///< block = V, for V > 1 (as Fig. 17 builds it)
  BlockedEllDevice ell_dev;
};

struct SpmmCase {
  int operand = 0, b = 0, c = 0, n = 0;
  double dense_cycles = 0;
  std::string label;
};

constexpr int kFpu = 0, kEll = 1, kOctet = 2;
constexpr const char* kSpmmKernels[3] = {"spmm_fpu_subwarp", "spmm_blocked_ell",
                                         "spmm_octet"};

struct SpmmState {
  explicit SpmmState(int threads) : dev(device_config(512 * kMiB)) {
    dev.set_sim_options({.threads = threads});
  }
  gpusim::Device dev;
  std::vector<SpmmOperand> operands;
  std::vector<DenseMatrix<half_t>> b_host;
  std::vector<DenseDevice<half_t>> b_dev;
  std::vector<std::array<DenseDevice<half_t>, 3>> c_dev;  ///< per kernel
  std::vector<SpmmCase> cases;
  std::uint64_t upload_bytes = 0;
};

// The Fig. 17 small-scale grid: the library suite's shapes and sparsity
// grid, with Fig. 17's V and N.  Operand values come from the run seed.
constexpr int kSpmmVs[] = {1, 2, 4, 8};
constexpr int kSpmmNs[] = {64, 128, 256};

std::unique_ptr<SpmmState> setup_spmm(const Options& opts, Tracer* tracer,
                                      KernelBook& book, bool count) {
  auto st = std::make_unique<SpmmState>(opts.threads);
  const std::vector<Shape> shapes = vsparse::bench::suite_shapes(Scale::kSmall);
  const std::vector<double>& sparsities = vsparse::bench::sparsity_grid();
  std::map<std::tuple<int, int, int>, int> operand_index;
  for (const Shape& shape : shapes) {
    for (int v : kSpmmVs) {
      for (std::size_t si = 0; si < sparsities.size(); ++si) {
        SpmmOperand op;
        op.v = v;
        const double sparsity = sparsities[si];
        Rng rng(mix64(opts.seed ^ (static_cast<std::uint64_t>(shape.m) << 40) ^
                      (static_cast<std::uint64_t>(shape.k) << 24) ^
                      (static_cast<std::uint64_t>(v) << 8) ^ si));
        {
          Span span(tracer, "formats.generate");
          op.cvs = vsparse::make_cvs(shape.m, shape.k, v, sparsity, rng,
                                     /*row_jitter=*/0.25);
          if (v > 1) {
            op.ell =
                vsparse::make_blocked_ell(shape.m, shape.k, v, sparsity, rng);
          }
        }
        {
          Span span(tracer, "formats.upload");
          op.cvs_dev = vsparse::to_device(st->dev, op.cvs);
          st->upload_bytes += cvs_bytes(op.cvs);
          if (v > 1) {
            op.ell_dev = vsparse::to_device(st->dev, op.ell);
            st->upload_bytes += op.ell.col_idx.size() * sizeof(std::int32_t) +
                                op.ell.values.size() * sizeof(half_t);
          }
        }
        operand_index[{shape.m * 4096 + shape.k, v, static_cast<int>(si)}] =
            static_cast<int>(st->operands.size());
        st->operands.push_back(std::move(op));
      }
    }
  }

  std::map<std::pair<int, int>, int> b_index, c_index;
  for (int n : kSpmmNs) {
    for (const Shape& shape : shapes) {
      if (!b_index.count({shape.k, n})) {
        DenseMatrix<half_t> b(shape.k, n);
        {
          Span span(tracer, "formats.generate");
          Rng rng(mix64(opts.seed ^ 0xb0b0 ^
                        (static_cast<std::uint64_t>(shape.k) << 20) ^
                        static_cast<std::uint64_t>(n)));
          b.fill_random(rng, -1.0f, 1.0f);
        }
        Span span(tracer, "formats.upload");
        b_index[{shape.k, n}] = static_cast<int>(st->b_dev.size());
        st->b_dev.push_back(vsparse::to_device(st->dev, b));
        st->upload_bytes += b.data().size_bytes();
        st->b_host.push_back(std::move(b));
      }
      if (!c_index.count({shape.m, n})) {
        c_index[{shape.m, n}] = static_cast<int>(st->c_dev.size());
        std::array<DenseDevice<half_t>, 3> cs;
        for (DenseDevice<half_t>& c : cs) {
          c = DenseDevice<half_t>{
              st->dev.alloc<half_t>(static_cast<std::size_t>(shape.m) * n),
              shape.m, n, n, Layout::kRowMajor};
        }
        st->c_dev.push_back(cs);
      }
    }
  }

  // Fig. 17's case order: V, N, sparsity, shape.  The dense baseline is
  // simulated once per distinct (M, K, N).
  std::map<std::tuple<int, int, int>, double> dense;
  for (int v : kSpmmVs) {
    for (int n : kSpmmNs) {
      for (std::size_t si = 0; si < sparsities.size(); ++si) {
        for (const Shape& shape : shapes) {
          SpmmCase cs;
          cs.operand = operand_index.at(
              {shape.m * 4096 + shape.k, v, static_cast<int>(si)});
          cs.b = b_index.at({shape.k, n});
          cs.c = c_index.at({shape.m, n});
          cs.n = n;
          const auto key = std::make_tuple(shape.m, shape.k, n);
          if (!dense.count(key)) {
            dense[key] = hgemm_cycles(book, tracer, shape.m, shape.k, n,
                                      opts.threads, count);
          }
          cs.dense_cycles = dense.at(key);
          char label[96];
          std::snprintf(label, sizeof(label), "v=%d n=%d sparsity=%.2f %dx%d",
                        v, n, sparsities[si], shape.m, shape.k);
          cs.label = label;
          st->cases.push_back(std::move(cs));
        }
      }
    }
  }
  return st;
}

/// First-execution record of one case, compared on every later pass.
struct SpmmRecord {
  bool done = false;
  std::array<bool, 3> ran{};
  std::array<gpusim::KernelStats, 3> stats{};
  std::array<std::uint64_t, 3> hash{};
  std::array<double, 3> cycles{};
};

}  // namespace

RunResult run_spmm_dlmc(const Options& opts, Tracer* tracer) {
  RunResult result;
  KernelBook book;
  std::unique_ptr<SpmmState> st;
  SetupTimes setup_s;
  const auto teardown = [&] { st.reset(); };
  const auto setup = [&](bool first) {
    st = setup_spmm(opts, tracer, book, first);
  };
  repeat_setup(teardown, setup, setup_s);

  std::vector<SpmmRecord> records(st->cases.size());
  std::vector<double> ctas_per_case(st->cases.size(), 0.0);
  CheckQueue checks;
  Tracer* kernel_tracer = nullptr;  // kernel spans only in loop B

  const auto body = [&](std::size_t i, Stopwatch& sw) {
    SpmmCase& cs = st->cases[i];
    SpmmOperand& op = st->operands[static_cast<std::size_t>(cs.operand)];
    const DenseDevice<half_t>& b = st->b_dev[static_cast<std::size_t>(cs.b)];
    std::array<DenseDevice<half_t>, 3>& c =
        st->c_dev[static_cast<std::size_t>(cs.c)];
    SpmmRecord& rec = records[i];
    const bool first = !rec.done;

    // Each case starts with a cold L2, as Fig. 17's fresh device does.
    st->dev.flush_all_caches();
    std::array<kernels::KernelRun, 3> runs;
    std::array<bool, 3> ran{true, op.v > 1, op.v > 1};
    runs[kFpu] = book.call(kSpmmKernels[kFpu], kernel_tracer, first, [&] {
      return kernels::spmm_fpu_subwarp(st->dev, op.cvs_dev, b, c[kFpu]);
    });
    if (op.v > 1) {
      runs[kEll] = book.call(kSpmmKernels[kEll], kernel_tracer, first, [&] {
        return kernels::spmm_blocked_ell(st->dev, op.ell_dev, b, c[kEll]);
      });
      runs[kOctet] = book.call(kSpmmKernels[kOctet], kernel_tracer, first, [&] {
        return kernels::spmm_octet(st->dev, op.cvs_dev, b, c[kOctet]);
      });
    }
    sw.pause();

    if (!first) {
      for (int j = 0; j < 3; ++j) {
        if (!ran[static_cast<std::size_t>(j)]) continue;
        ++result.attempted;
        if (buffer_hash(c[static_cast<std::size_t>(j)].buf) !=
                rec.hash[static_cast<std::size_t>(j)] ||
            !runs[static_cast<std::size_t>(j)].stats.sm_local_equal(
                rec.stats[static_cast<std::size_t>(j)])) {
          result.fail(cs.label + " " + kSpmmKernels[j] +
                      ": output or counters differ from the first pass");
        }
      }
      return;
    }

    rec.done = true;
    rec.ran = ran;
    std::array<std::vector<half_t>, 3> out;
    for (int j = 0; j < 3; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!ran[ju]) continue;
      {
        Span span(tracer, "readback");
        out[ju] = download(c[ju].buf);
      }
      rec.stats[ju] = runs[ju].stats;
      rec.hash[ju] = fnv1a(out[ju].data(), out[ju].size() * sizeof(half_t));
      rec.cycles[ju] = book.cost(runs[ju], tracer, /*count_bound=*/true).cycles;
      ctas_per_case[i] += static_cast<double>(runs[ju].stats.ctas_launched);
    }
    const DenseMatrix<half_t>* b_host =
        &st->b_host[static_cast<std::size_t>(cs.b)];
    const std::string label = cs.label;
    checks.add(label + " spmm_fpu_subwarp/spmm_octet",
               [&op, b_host, fpu = std::move(out[kFpu]),
                octet = std::move(out[kOctet])] {
                 const std::vector<half_t> want =
                     dense_values(vsparse::spmm_reference(op.cvs, *b_host));
                 std::uint64_t bad = compare(fpu, want, kSpmmAtol, kSpmmRtol);
                 if (op.v > 1) bad += compare(octet, want, kSpmmAtol, kSpmmRtol);
                 return bad;
               });
    if (op.v > 1) {
      checks.add(label + " spmm_blocked_ell",
                 [&op, b_host, ell = std::move(out[kEll])] {
                   // The Blocked-ELL operand as CVS with V = block: the
                   // same nonzeros, in the same K order.
                   const Cvs as_cvs = Cvs::from_dense(op.ell.to_dense(), op.v);
                   return compare(ell,
                                  dense_values(vsparse::spmm_reference(
                                      as_cvs, *b_host)),
                                  kSpmmAtol, kSpmmRtol);
                 });
    }
  };

  const std::size_t units = st->cases.size();
  book.reset_timing();
  const LoopResult loop_a = run_loop(units, opts.seconds, units, body);
  const double inside_a = book.inside_calls_s();

  std::uint64_t mismatched = 0;
  {
    Span span(tracer, "reference");
    mismatched = checks.run(opts.threads, result);
  }

  // Simulated results from the first pass.
  double sparse_cycles = 0.0;
  std::vector<double> speedups, latency, deadline;
  for (std::size_t i = 0; i < units; ++i) {
    const SpmmRecord& rec = records[i];
    const SpmmCase& cs = st->cases[i];
    for (int j = 0; j < 3; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      if (!rec.ran[ju]) continue;
      sparse_cycles += rec.cycles[ju];
      result.det("inv." + cs.label + " " + kSpmmKernels[j],
                 fingerprint(rec.stats[ju], rec.hash[ju]));
      result.det("serial." + cs.label + " " + kSpmmKernels[j], rec.cycles[ju]);
    }
    const double paper = rec.ran[kOctet] ? rec.cycles[kOctet] : rec.cycles[kFpu];
    if (rec.ran[kOctet]) speedups.push_back(cs.dense_cycles / rec.cycles[kOctet]);
    latency.push_back(paper);
    deadline.push_back(cs.dense_cycles);
  }

  Metrics& e2e = result.end_to_end;
  Metrics& layers = result.layers;
  e2e["model_gpu_ms"] = {sparse_cycles / kModeledClockHz * 1e3, "ms"};
  e2e["mma_speedup_geomean"] = {geomean(speedups), "x"};
  batch_request_metrics(latency, deadline, e2e);
  outside_launch(loop_a, inside_a, layers);
  layers["formats.upload_bytes"] = {static_cast<double>(st->upload_bytes),
                                    "bytes"};
  layers["reference.mismatches"] = {static_cast<double>(mismatched), "count"};

  if (tracer != nullptr) {
    kernel_tracer = tracer;
    book.reset_timing();
    const LoopResult loop_b = run_loop(units, 0.0, loop_a.executions, body);
    trace_overhead(loop_a, loop_b, layers);
    kernel_layer_metrics(book,
                         static_cast<double>(loop_b.executions) /
                             static_cast<double>(units),
                         layers);
  }
  repeat_setup(teardown, setup, setup_s);
  result.setup_reps = static_cast<int>(setup_s.wall.size());
  host_speed_metrics(loop_a, ctas_per_case,
                     std::vector<double>(units, 1.0), setup_s, e2e, layers);
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return result;
}

// ---- attention_tcu -----------------------------------------------------

namespace {

struct AttnShape {
  int seq = 0, kdim = 0;
  DenseMatrix<half_t> q, k, v, kt;  ///< kt: Kᵀ as a column-major view of K
  DenseDevice<half_t> dq, dkt, dv, dout;
  double dense_cycles = 0;  ///< dense head: QKᵀ + softmax + AV
};

struct AttnMask {
  int seq = 0, v = 0;
  double sparsity = 0;
  Cvs mask;
  CvsDevice dev;
  gpusim::Buffer<half_t> scratch;  ///< logits, then probabilities
};

struct AttnCase {
  int shape = 0, mask = 0;
  std::string label;
};

struct AttnState {
  explicit AttnState(int threads) : dev(device_config(256 * kMiB)) {
    dev.set_sim_options({.threads = threads});
  }
  gpusim::Device dev;
  std::vector<AttnShape> shapes;
  std::vector<AttnMask> masks;
  std::vector<AttnCase> cases;
  std::uint64_t upload_bytes = 0;
};

// Fig. 20 small scale: l in {1024, 2048}, k in {64, 256}, mask
// sparsity {0.9, 0.95, 0.98}, band 256; V over {2, 4, 8}.
constexpr int kSeqs[] = {1024, 2048};
constexpr int kHeadDims[] = {64, 256};
constexpr int kMaskVs[] = {2, 4, 8};
constexpr double kMaskSparsities[] = {0.90, 0.95, 0.98};
constexpr int kMaskBand = 256;

double dense_head_cycles(const AttnShape& s, int threads, Tracer* tracer) {
  const std::size_t elems =
      4 * static_cast<std::size_t>(s.seq) * s.kdim +
      static_cast<std::size_t>(s.seq) * s.seq;
  // Headroom: the dense path allocates split-K workspace of its own.
  gpusim::Device dev(device_config(2 * elems * sizeof(half_t) + 16 * kMiB));
  dev.set_sim_options({.threads = threads});
  auto dq = vsparse::to_device(dev, s.q);
  auto dk = vsparse::to_device(dev, s.k);
  auto dv = vsparse::to_device(dev, s.v);
  DenseDevice<half_t> scores{
      dev.alloc<half_t>(static_cast<std::size_t>(s.seq) * s.seq), s.seq, s.seq,
      s.seq, Layout::kRowMajor};
  DenseDevice<half_t> out{
      dev.alloc<half_t>(static_cast<std::size_t>(s.seq) * s.kdim), s.seq,
      s.kdim, s.kdim, Layout::kRowMajor};
  vsparse::transformer::AttentionBreakdown br;
  {
    Span span(tracer, "transformer");
    br = vsparse::transformer::dense_attention_head(dev, dq, dk, dv, scores,
                                                    out);
  }
  Span span(tracer, "costmodel");
  return br.total_cycles(gpusim::DeviceConfig::volta_v100());
}

std::unique_ptr<AttnState> setup_attention(const Options& opts,
                                           Tracer* tracer) {
  auto st = std::make_unique<AttnState>(opts.threads);
  for (int seq : kSeqs) {
    for (int kdim : kHeadDims) {
      AttnShape s;
      s.seq = seq;
      s.kdim = kdim;
      {
        Span span(tracer, "formats.generate");
        Rng rng(mix64(opts.seed ^ 0xa77e ^ (static_cast<std::uint64_t>(seq) << 16) ^
                      static_cast<std::uint64_t>(kdim)));
        for (DenseMatrix<half_t>* m : {&s.q, &s.k, &s.v}) {
          *m = DenseMatrix<half_t>(seq, kdim);
          m->fill_random(rng, -0.5f, 0.5f);
        }
        // Kᵀ (kdim x seq, column-major) shares K's row-major storage.
        s.kt = DenseMatrix<half_t>(kdim, seq, Layout::kColMajor);
        std::copy(s.k.data().begin(), s.k.data().end(), s.kt.data().begin());
      }
      {
        Span span(tracer, "formats.upload");
        s.dq = vsparse::to_device(st->dev, s.q);
        const DenseDevice<half_t> dk = vsparse::to_device(st->dev, s.k);
        s.dkt = DenseDevice<half_t>{dk.buf, kdim, seq, dk.ld, Layout::kColMajor};
        s.dv = vsparse::to_device(st->dev, s.v);
        st->upload_bytes += 3 * s.q.data().size_bytes();
      }
      s.dout = DenseDevice<half_t>{
          st->dev.alloc<half_t>(static_cast<std::size_t>(seq) * kdim), seq,
          kdim, kdim, Layout::kRowMajor};
      s.dense_cycles = dense_head_cycles(s, opts.threads, tracer);
      st->shapes.push_back(std::move(s));
    }
    for (int v : kMaskVs) {
      for (std::size_t si = 0; si < std::size(kMaskSparsities); ++si) {
        AttnMask m;
        m.seq = seq;
        m.v = v;
        {
          Span span(tracer, "formats.generate");
          Rng rng(mix64(opts.seed ^ 0x3a5c ^ (static_cast<std::uint64_t>(seq) << 20) ^
                        (static_cast<std::uint64_t>(v) << 8) ^ si));
          // At these shapes the 256-wide band holds every nonzero, so
          // with the density fixed a head's pattern — and cost — would
          // not depend on the seed at all.  The seed moves each mask's
          // per-row count by up to one column instead.
          m.sparsity = kMaskSparsities[si] +
                       (static_cast<double>(rng.uniform_float()) - 0.5) * 2.5 /
                           static_cast<double>(seq);
          m.mask = vsparse::make_attention_mask(seq, v, kMaskBand, m.sparsity,
                                                rng);
        }
        {
          Span span(tracer, "formats.upload");
          m.dev = vsparse::to_device(st->dev, m.mask);
          st->upload_bytes += cvs_bytes(m.mask);
        }
        m.scratch = st->dev.alloc<half_t>(m.mask.values.size());
        st->masks.push_back(std::move(m));
      }
    }
  }
  for (std::size_t si = 0; si < st->shapes.size(); ++si) {
    for (std::size_t mi = 0; mi < st->masks.size(); ++mi) {
      if (st->masks[mi].seq != st->shapes[si].seq) continue;
      char label[96];
      std::snprintf(label, sizeof(label), "l=%d k=%d v=%d sparsity=%.2f",
                    st->shapes[si].seq, st->shapes[si].kdim, st->masks[mi].v,
                    st->masks[mi].sparsity);
      st->cases.push_back(
          {static_cast<int>(si), static_cast<int>(mi), label});
    }
  }
  return st;
}

constexpr int kQk = 0, kSoftmax = 1, kAv = 2;
constexpr const char* kAttnKernels[3] = {"sddmm_octet", "sparse_softmax",
                                         "spmm_octet"};

struct AttnRecord {
  bool done = false;
  std::array<gpusim::KernelStats, 3> stats{};
  std::array<std::uint64_t, 3> hash{};
  std::array<double, 3> cycles{};
};

}  // namespace

RunResult run_attention_tcu(const Options& opts, Tracer* tracer) {
  RunResult result;
  KernelBook book;
  std::unique_ptr<AttnState> st;
  SetupTimes setup_s;
  const auto teardown = [&] { st.reset(); };
  const auto setup = [&](bool) { st = setup_attention(opts, tracer); };
  repeat_setup(teardown, setup, setup_s);

  std::vector<AttnRecord> records(st->cases.size());
  std::vector<double> ctas_per_case(st->cases.size(), 0.0);
  CheckQueue checks;
  Tracer* kernel_tracer = nullptr;

  const auto body = [&](std::size_t i, Stopwatch& sw) {
    const AttnCase& cs = st->cases[i];
    AttnShape& s = st->shapes[static_cast<std::size_t>(cs.shape)];
    AttnMask& m = st->masks[static_cast<std::size_t>(cs.mask)];
    AttnRecord& rec = records[i];
    const bool first = !rec.done;
    const float scale = 1.0f / std::sqrt(static_cast<float>(s.kdim));
    std::array<kernels::KernelRun, 3> runs;
    std::array<std::uint64_t, 3> hash{};
    std::array<std::vector<half_t>, 3> out;

    // Readback between stages: the scratch buffer is rewritten in place.
    const auto capture = [&](int stage, const gpusim::Buffer<half_t>& buf) {
      sw.pause();
      if (first) {
        Span span(tracer, "readback");
        out[static_cast<std::size_t>(stage)] = download(buf);
      }
      hash[static_cast<std::size_t>(stage)] = buffer_hash(buf);
      sw.resume();
    };

    st->dev.flush_all_caches();
    runs[kQk] = book.call(kAttnKernels[kQk], kernel_tracer, first, [&] {
      return kernels::sddmm_octet(
          st->dev, s.dq, s.dkt, m.dev, m.scratch,
          {kernels::InvertedPatternMode::kExtraRegisters});
    });
    capture(kQk, m.scratch);
    runs[kSoftmax] = book.call(kAttnKernels[kSoftmax], kernel_tracer, first, [&] {
      return kernels::sparse_softmax(st->dev, m.dev, m.scratch, m.scratch,
                                     scale);
    });
    capture(kSoftmax, m.scratch);
    CvsDevice probs = m.dev;
    probs.values = m.scratch;
    runs[kAv] = book.call(kAttnKernels[kAv], kernel_tracer, first, [&] {
      return kernels::spmm_octet(st->dev, probs, s.dv, s.dout);
    });
    capture(kAv, s.dout.buf);
    sw.pause();

    if (!first) {
      for (int j = 0; j < 3; ++j) {
        const auto ju = static_cast<std::size_t>(j);
        ++result.attempted;
        if (hash[ju] != rec.hash[ju] ||
            !runs[ju].stats.sm_local_equal(rec.stats[ju])) {
          result.fail(cs.label + " " + kAttnKernels[j] +
                      ": output or counters differ from the first pass");
        }
      }
      return;
    }
    rec.done = true;
    for (int j = 0; j < 3; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      rec.stats[ju] = runs[ju].stats;
      rec.hash[ju] = hash[ju];
      rec.cycles[ju] = book.cost(runs[ju], tracer, /*count_bound=*/true).cycles;
      ctas_per_case[i] += static_cast<double>(runs[ju].stats.ctas_launched);
    }
    // Each stage is checked on the previous stage's device output; the
    // AV stage's output is the attention head's output.
    checks.add(cs.label + " sddmm_octet",
               [&s, &m, got = out[kQk]] {
                 return compare(got,
                                vsparse::sddmm_reference(s.q, s.kt, m.mask).values,
                                kSpmmAtol, kSpmmRtol);
               });
    checks.add(cs.label + " sparse_softmax",
               [&m, scale, logits = std::move(out[kQk]),
                got = out[kSoftmax]] {
                 const Cvs ref = vsparse::sparse_softmax_reference(
                     with_values(m.mask, logits), scale);
                 return compare(got, ref.values, kSoftmaxAtol, 0.0f);
               });
    checks.add(cs.label + " spmm_octet (attention output)",
               [&s, &m, probs_host = std::move(out[kSoftmax]),
                got = std::move(out[kAv])] {
                 return compare(got,
                                dense_values(vsparse::spmm_reference(
                                    with_values(m.mask, probs_host), s.v)),
                                kSpmmAtol, kSpmmRtol);
               });
  };

  const std::size_t units = st->cases.size();
  book.reset_timing();
  const LoopResult loop_a = run_loop(units, opts.seconds, units, body);
  const double inside_a = book.inside_calls_s();

  std::uint64_t mismatched = 0;
  {
    Span span(tracer, "reference");
    mismatched = checks.run(opts.threads, result);
  }

  double sparse_cycles = 0.0;
  std::array<double, 3> stage_cycles{};
  std::vector<double> speedups, latency, deadline;
  for (std::size_t i = 0; i < units; ++i) {
    const AttnRecord& rec = records[i];
    const AttnCase& cs = st->cases[i];
    double head = 0.0;
    for (int j = 0; j < 3; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      head += rec.cycles[ju];
      stage_cycles[ju] += rec.cycles[ju];
      result.det("inv." + cs.label + " " + kAttnKernels[j],
                 fingerprint(rec.stats[ju], rec.hash[ju]));
      result.det("serial." + cs.label + " " + kAttnKernels[j], rec.cycles[ju]);
    }
    const double dense =
        st->shapes[static_cast<std::size_t>(cs.shape)].dense_cycles;
    sparse_cycles += head;
    speedups.push_back(dense / head);
    latency.push_back(head);
    deadline.push_back(dense);
  }

  Metrics& e2e = result.end_to_end;
  Metrics& layers = result.layers;
  e2e["model_gpu_ms"] = {sparse_cycles / kModeledClockHz * 1e3, "ms"};
  e2e["mma_speedup_geomean"] = {geomean(speedups), "x"};
  batch_request_metrics(latency, deadline, e2e);
  outside_launch(loop_a, inside_a, layers);
  layers["transformer.qk_cycles"] = {stage_cycles[kQk], "cycles"};
  layers["transformer.softmax_cycles"] = {stage_cycles[kSoftmax], "cycles"};
  layers["transformer.av_cycles"] = {stage_cycles[kAv], "cycles"};
  layers["formats.upload_bytes"] = {static_cast<double>(st->upload_bytes),
                                    "bytes"};
  layers["reference.mismatches"] = {static_cast<double>(mismatched), "count"};

  if (tracer != nullptr) {
    kernel_tracer = tracer;
    book.reset_timing();
    const LoopResult loop_b = run_loop(units, 0.0, loop_a.executions, body);
    trace_overhead(loop_a, loop_b, layers);
    kernel_layer_metrics(book,
                         static_cast<double>(loop_b.executions) /
                             static_cast<double>(units),
                         layers);
  }
  repeat_setup(teardown, setup, setup_s);
  result.setup_reps = static_cast<int>(setup_s.wall.size());
  host_speed_metrics(loop_a, ctas_per_case,
                     std::vector<double>(units, 1.0), setup_s, e2e, layers);
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return result;
}

// ---- probes -------------------------------------------------------------

ServingProbe::ServingProbe(const Options& opts, Tracer* tracer,
                           KernelBook& book, bool count)
    : dev_(std::make_unique<gpusim::Device>(device_config(16 * kMiB))) {
  dev_->set_sim_options({.threads = opts.threads});
  std::map<std::pair<int, int>, double> dense;
  for (int m : {64, 128}) {
    for (int k : {64, 128}) {
      for (int v : {2, 4}) {
        for (double sparsity : {0.7, 0.9}) {
          Class c;
          c.b = DenseMatrix<half_t>(k, kN);
          {
            Span span(tracer, "formats.generate");
            Rng rng(mix64(opts.seed ^ 0x5e7e ^
                          (static_cast<std::uint64_t>(m) << 24) ^
                          (static_cast<std::uint64_t>(k) << 12) ^
                          (static_cast<std::uint64_t>(v) << 4) ^
                          (sparsity > 0.8 ? 1u : 0u)));
            c.a = vsparse::make_cvs(m, k, v, sparsity, rng);
            c.b.fill_random(rng, -1.0f, 1.0f);
          }
          {
            Span span(tracer, "formats.upload");
            c.da = vsparse::to_device(*dev_, c.a);
            c.db = vsparse::to_device(*dev_, c.b);
          }
          c.dc = DenseDevice<half_t>{
              dev_->alloc<half_t>(static_cast<std::size_t>(m) * kN), m, kN,
              kN, Layout::kRowMajor};
          if (!dense.count({m, k})) {
            dense[{m, k}] =
                hgemm_cycles(book, tracer, m, k, kN, opts.threads, count);
          }
          c.dense_cycles = dense.at({m, k});
          char label[64];
          std::snprintf(label, sizeof(label),
                        "serving probe m=%d k=%d v=%d sparsity=%.1f", m, k, v,
                        sparsity);
          c.label = label;
          classes_.push_back(std::move(c));
        }
      }
    }
  }
}

ServingProbe::~ServingProbe() = default;

ServingProbeResult ServingProbe::run(Tracer* tracer, KernelBook& book,
                                     RunResult& result) {
  ServingProbeResult out;
  std::vector<double> speedups;
  for (Class& c : classes_) {
    dev_->flush_all_caches();
    const kernels::KernelRun run =
        book.call("spmm_octet", tracer, /*first=*/true,
                  [&] { return kernels::spmm_octet(*dev_, c.da, c.db, c.dc); });
    const double cycles = book.cost(run, tracer, /*count_bound=*/true).cycles;
    out.sparse_cycles += cycles;
    speedups.push_back(c.dense_cycles / cycles);

    std::vector<half_t> got;
    {
      Span span(tracer, "readback");
      got = download(c.dc.buf);
    }
    std::uint64_t bad = 0;
    {
      Span span(tracer, "reference");
      bad = compare(got, dense_values(vsparse::spmm_reference(c.a, c.b)),
                    kSpmmAtol, kSpmmRtol);
    }
    ++result.attempted;
    if (bad > 0) {
      result.fail(c.label + ": " + std::to_string(bad) +
                  " elements outside tolerance");
    }
    result.det("inv." + c.label,
               fingerprint(run.stats,
                           fnv1a(got.data(), got.size() * sizeof(half_t))));
    result.det("serial." + c.label, cycles);
  }
  out.speedup_geomean = geomean(speedups);
  return out;
}

void engine_probes(const Options& opts, Metrics& layers) {
  // Launch floor: host time of a one-CTA residual_add (256 threads x 8
  // halves covers the 8 x 64 operand in one CTA).
  {
    gpusim::Device dev(device_config(16 * kMiB));
    dev.set_sim_options({.threads = opts.threads});
    DenseMatrix<half_t> xh(8, 64), yh(8, 64);
    Rng rng(7);
    xh.fill_random(rng);
    yh.fill_random(rng);
    DenseDevice<half_t> x = vsparse::to_device(dev, xh);
    const DenseDevice<half_t> y = vsparse::to_device(dev, yh);
    std::vector<double> us;
    for (int i = 0; i < 220; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)kernels::residual_add(dev, x, y);
      if (i >= 20) us.push_back(seconds_between(t0, Clock::now()) * 1e6);
    }
    layers["engine.launch_floor_us"] = {median(us), "us"};
  }
  // Thread scaling on a fixed subset (independent of the run seed): the
  // FPU and octet SpMM on 512x512, V=4, sparsity 0.7, N=128.
  {
    Rng rng(2021);
    const Cvs a = vsparse::make_cvs(512, 512, 4, 0.7, rng);
    DenseMatrix<half_t> bh(512, 128);
    bh.fill_random(rng);
    const auto rate = [&](int threads) {
      gpusim::Device dev(device_config(32 * kMiB));
      dev.set_sim_options({.threads = threads});
      const CvsDevice da = vsparse::to_device(dev, a);
      const DenseDevice<half_t> db = vsparse::to_device(dev, bh);
      DenseDevice<half_t> dc{dev.alloc<half_t>(512 * 128), 512, 128, 128,
                             Layout::kRowMajor};
      std::vector<double> rates;
      for (int rep = 0; rep < 3; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t ctas =
            kernels::spmm_fpu_subwarp(dev, da, db, dc).stats.ctas_launched +
            kernels::spmm_octet(dev, da, db, dc).stats.ctas_launched;
        rates.push_back(static_cast<double>(ctas) /
                        seconds_between(t0, Clock::now()));
      }
      return median(rates);
    };
    const double one = rate(1);
    layers["engine.thread_scaling"] = {one > 0 ? rate(opts.threads) / one : 0.0,
                                       "x"};
  }
}

void span_layer_metrics(const Tracer& tracer, int setup_reps,
                        Metrics& layers) {
  const std::map<std::string, double> t = tracer.self_seconds();
  const auto self = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second;
  };
  const double reps = static_cast<double>(setup_reps);
  layers["formats.generate_s"] = {self("formats.generate") / reps, "s"};
  layers["formats.upload_s"] = {self("formats.upload") / reps, "s"};
  layers["transformer.host_s"] = {self("transformer") / reps, "s"};
  layers["costmodel.host_s"] = {self("costmodel"), "s"};
  layers["readback.host_s"] = {self("readback"), "s"};
  layers["reference.host_s"] = {self("reference"), "s"};
}

}  // namespace perfbench
