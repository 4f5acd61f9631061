#include "vsparse/gpusim/verify/certs.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

#include "vsparse/gpusim/engine/thread_pool.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::verify {

namespace {

constexpr const char* kSite = "gpusim.verify.certs";

/// Host threads certify() uses: one per hardware thread, at most 8
/// (each holds one probe device of up to ~50 MB).
constexpr std::size_t kMaxWorkers = 8;

void append_escaped(std::string& out, std::string_view s) {
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
}

std::string format_density(double d) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed << d;
  return os.str();
}

void append_shape(std::string& out, const ShapeCorner& s) {
  out += "{\"m\": " + std::to_string(s.m) + ", \"k\": " + std::to_string(s.k) +
         ", \"n\": " + std::to_string(s.n) + ", \"v\": " + std::to_string(s.v) +
         ", \"density\": " + format_density(s.density) + "}";
}

void append_dim(std::string& out, const char* name, const DimRange& d) {
  out += '"';
  out += name;
  out += "\": {\"lo\": " + std::to_string(d.lo) +
         ", \"hi\": " + std::to_string(d.hi) +
         ", \"mod\": " + std::to_string(d.mod) + "}";
}

}  // namespace

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

std::string certs_json(const std::vector<CertEntry>& entries) {
  std::string out;
  out += "{\n  \"version\": \"";
  out += kCertStoreVersion;
  out += "\",\n  \"entries\": [";
  bool first = true;
  for (const CertEntry& entry : entries) {
    const Verdict& v = entry.verdict;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"kernel\": \"";
    append_escaped(out, entry.kernel);
    out += "\", \"arch\": \"";
    append_escaped(out, entry.arch);
    out += "\", \"class\": {\"name\": \"";
    append_escaped(out, entry.cls.name);
    out += "\", \"v\": " + std::to_string(entry.cls.v) + ", ";
    append_dim(out, "m", entry.cls.m);
    out += ", ";
    append_dim(out, "k", entry.cls.k);
    out += ", ";
    append_dim(out, "n", entry.cls.n);
    out += ", \"d_lo\": " + format_density(entry.cls.d_lo) +
           ", \"d_hi\": " + format_density(entry.cls.d_hi) + "}";
    out += ", \"verdict\": \"";
    out += verdict_name(v.kind);
    out += "\"";
    if (v.kind == VerdictKind::kRefuted) {
      out += ", \"counterexample\": ";
      append_shape(out, v.counterexample);
    }
    if (!v.site.empty()) {
      out += ", \"site\": \"";
      append_escaped(out, v.site);
      out += "\"";
    }
    if (!v.detail.empty()) {
      out += ", \"detail\": \"";
      append_escaped(out, v.detail);
      out += "\"";
    }
    out += ", \"corners_checked\": " + std::to_string(v.corners_checked);
    out += ", \"corners_rejected\": " + std::to_string(v.corners_rejected);
    out += "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void save_certs(const std::string& path,
                const std::vector<CertEntry>& entries) {
  std::ofstream out(path, std::ios::binary);
  VSPARSE_CHECK_RAISE(out.good(), ErrorCode::kBadDispatch, kSite,
                      "cannot open certificate store for writing: " << path);
  const std::string text = certs_json(entries);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  VSPARSE_CHECK_RAISE(out.good(), ErrorCode::kBadDispatch, kSite,
                      "short write persisting certificate store: " << path);
}

}  // namespace vsparse::verify
