#include "vsparse/gpusim/sanitizer/report.hpp"

#include <array>
#include <cstdio>
#include <sstream>

#include "vsparse/common/json.hpp"

namespace vsparse::gpusim {

const char* sanitizer_tool_name(SanitizerTool tool) {
  switch (tool) {
    case SanitizerTool::kRace:
      return "race";
    case SanitizerTool::kSync:
      return "sync";
    case SanitizerTool::kInit:
      return "init";
    case SanitizerTool::kBounds:
      return "bounds";
    case SanitizerTool::kNumTools:
      break;
  }
  return "?";
}

const char* hazard_kind_name(HazardKind kind) {
  switch (kind) {
    case HazardKind::kRawRace:
      return "raw_race";
    case HazardKind::kWarRace:
      return "war_race";
    case HazardKind::kWawRace:
      return "waw_race";
    case HazardKind::kDivergentBarrier:
      return "divergent_barrier";
    case HazardKind::kBarrierMismatch:
      return "barrier_mismatch";
    case HazardKind::kUninitSmemRead:
      return "uninit_smem_read";
    case HazardKind::kGlobalUseAfterFree:
      return "global_use_after_free";
    case HazardKind::kSmemOob:
      return "smem_oob";
    case HazardKind::kGlobalOob:
      return "global_oob";
    case HazardKind::kNumHazardKinds:
      break;
  }
  return "?";
}

SanitizerTool hazard_tool(HazardKind kind) {
  switch (kind) {
    case HazardKind::kRawRace:
    case HazardKind::kWarRace:
    case HazardKind::kWawRace:
      return SanitizerTool::kRace;
    case HazardKind::kDivergentBarrier:
    case HazardKind::kBarrierMismatch:
      return SanitizerTool::kSync;
    case HazardKind::kUninitSmemRead:
    case HazardKind::kGlobalUseAfterFree:
      return SanitizerTool::kInit;
    case HazardKind::kSmemOob:
    case HazardKind::kGlobalOob:
    case HazardKind::kNumHazardKinds:
      break;
  }
  return SanitizerTool::kBounds;
}

namespace {

void append_site(std::ostream& os, const char* label, const HazardSite& site) {
  os << label << "=[";
  if (site.warp < 0) {
    os << "none";
  } else {
    os << "warp " << site.warp << ' ' << op_name(site.op) << " @op "
       << site.cta_op;
  }
  os << ']';
}

}  // namespace

std::string to_string(const SanitizerReport& report) {
  std::ostringstream os;
  os << sanitizer_tool_name(report.tool()) << ':'
     << hazard_kind_name(report.kind) << " sm=" << report.sm
     << " cta=" << report.cta << " addr=0x" << std::hex << report.addr
     << std::dec << " bytes=" << report.bytes << " epoch=" << report.epoch
     << ' ';
  append_site(os, "first", report.first);
  os << ' ';
  append_site(os, "second", report.second);
  if (!report.detail.empty()) os << " -- " << report.detail;
  return os.str();
}

std::uint64_t Sanitizer::num_reports() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const LaunchSanitizerRecord& launch : launches_) {
    n += launch.reports.size();
  }
  return n;
}

std::uint64_t Sanitizer::num_reports(SanitizerTool tool) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t n = 0;
  for (const LaunchSanitizerRecord& launch : launches_) {
    for (const SanitizerReport& report : launch.reports) {
      if (report.tool() == tool) ++n;
    }
  }
  return n;
}

namespace {

void site_json(std::ostream& os, const HazardSite& site) {
  os << "{\"warp\": " << site.warp << ", \"op\": \"" << op_name(site.op)
     << "\", \"cta_op\": " << site.cta_op << '}';
}

}  // namespace

std::string sanitizer_json(const Sanitizer& sink) {
  const std::vector<LaunchSanitizerRecord> launches = sink.launches();

  std::uint64_t total = 0;
  std::uint64_t suppressed = 0;
  std::array<std::uint64_t, static_cast<int>(SanitizerTool::kNumTools)>
      by_tool{};
  for (const LaunchSanitizerRecord& launch : launches) {
    total += launch.reports.size();
    suppressed += launch.suppressed;
    for (const SanitizerReport& report : launch.reports) {
      ++by_tool[static_cast<std::size_t>(report.tool())];
    }
  }

  std::ostringstream os;
  os << "{\n  \"schema\": \"vsparse-sanitizer-v1\",\n  \"num_launches\": "
     << launches.size() << ",\n  \"num_reports\": " << total
     << ",\n  \"num_suppressed\": " << suppressed << ",\n  \"by_tool\": {";
  for (int t = 0; t < static_cast<int>(SanitizerTool::kNumTools); ++t) {
    os << (t == 0 ? "" : ", ") << '"'
       << sanitizer_tool_name(static_cast<SanitizerTool>(t))
       << "\": " << by_tool[static_cast<std::size_t>(t)];
  }
  os << "},\n  \"launches\": [";
  bool first_launch = true;
  int index = 0;
  for (const LaunchSanitizerRecord& launch : launches) {
    os << (first_launch ? "\n" : ",\n");
    first_launch = false;
    os << "    {\n      \"index\": " << index++ << ",\n      \"kernel\": \"";
    os << json_escape(launch.kernel);
    os << "\",\n      \"grid\": " << launch.grid
       << ",\n      \"cta_threads\": " << launch.cta_threads
       << ",\n      \"smem_bytes\": " << launch.smem_bytes
       << ",\n      \"aborted\": " << (launch.aborted ? "true" : "false")
       << ",\n      \"suppressed\": " << launch.suppressed
       << ",\n      \"reports\": [";
    bool first_report = true;
    for (const SanitizerReport& report : launch.reports) {
      os << (first_report ? "\n" : ",\n");
      first_report = false;
      os << "        {\"tool\": \"" << sanitizer_tool_name(report.tool())
         << "\", \"kind\": \"" << hazard_kind_name(report.kind)
         << "\", \"sm\": " << report.sm << ", \"cta\": " << report.cta
         << ", \"addr\": " << report.addr << ", \"bytes\": " << report.bytes
         << ", \"epoch\": " << report.epoch << ",\n         \"first\": ";
      site_json(os, report.first);
      os << ", \"second\": ";
      site_json(os, report.second);
      os << ",\n         \"detail\": \"";
      os << json_escape(report.detail);
      os << "\"}";
    }
    os << (first_report ? "]" : "\n      ]") << "\n    }";
  }
  os << (first_launch ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

bool write_sanitizer_report(const Sanitizer& sink, const std::string& path) {
  const std::string body = sanitizer_json(sink);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return (std::fclose(f) == 0) && ok;
}

bool parse_sanitizer_tools(std::string_view spec, SanitizerOptions* opts) {
  opts->race = opts->sync = opts->init = opts->bounds = false;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view tok = spec.substr(pos, comma - pos);
    if (tok == "race") {
      opts->race = true;
    } else if (tok == "sync") {
      opts->sync = true;
    } else if (tok == "init") {
      opts->init = true;
    } else if (tok == "bounds") {
      opts->bounds = true;
    } else if (tok == "all") {
      opts->race = opts->sync = opts->init = opts->bounds = true;
    } else if (!tok.empty()) {
      return false;
    }
    pos = comma + 1;
  }
  return true;
}

}  // namespace vsparse::gpusim
