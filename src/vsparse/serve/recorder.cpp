#include "vsparse/serve/recorder.hpp"

#include <cctype>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "vsparse/common/rng.hpp"
#include "vsparse/serve/error.hpp"

namespace vsparse::serve {
namespace {

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  for (char ch : s) h = mix64(h ^ static_cast<unsigned char>(ch));
  return h;
}

/// Sparsity values are seed-derived from {0.7, 0.9}; three fixed
/// digits round-trip them exactly through stod.
std::string format_sparsity(double sparsity) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << sparsity;
  return os.str();
}

RequestOp parse_op(const std::string& name, std::size_t offset) {
  if (name == "spmm") return RequestOp::kSpmm;
  if (name == "sddmm") return RequestOp::kSddmm;
  if (name == "attention") return RequestOp::kAttention;
  VSPARSE_RAISE(ErrorCode::kMalformedFormat, "serve.recorder",
                "unknown request op \"" << name << "\" at offset " << offset);
}

/// Minimal recursive-descent reader for the vsparse-repro-v1 schema —
/// the same shape as the hardened policy-cache loader (kernels/
/// policy.cpp), including the raise-on-anything-odd posture: a repro
/// bundle is an external artifact.
class ReproReader {
 public:
  explicit ReproReader(std::string_view text) : text_(text) {}

  void expect(char ch) {
    skip_ws();
    check(pos_ < text_.size() && text_[pos_] == ch,
          std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consume(char ch) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_ws();
    check(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char ch = text_[pos_++];
      if (ch == '\\') {
        check(pos_ < text_.size(), "truncated escape");
        ch = text_[pos_++];
        check(ch == '"' || ch == '\\' || ch == '/', "unsupported escape");
      }
      out += ch;
    }
    check(pos_ < text_.size(), "unterminated string");
    ++pos_;
    return out;
  }

  double number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    check(pos_ > start, "expected number");
    double value = 0.0;
    try {
      value = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      check(false, "unparseable number");
    }
    check(std::isfinite(value), "non-finite number");
    return value;
  }

  /// Exact unsigned 64-bit parse — seeds are full-width mix64 outputs,
  /// so routing them through double would silently round above 2^53.
  std::uint64_t u64() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    check(pos_ > start, "expected unsigned integer");
    std::uint64_t value = 0;
    for (std::size_t i = start; i < pos_; ++i) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[i] - '0');
      check(value <= (~std::uint64_t{0} - digit) / 10, "integer overflow");
      value = value * 10 + digit;
    }
    return value;
  }

  bool boolean() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    check(false, "expected boolean");
    return false;
  }

  /// Skip any JSON value and return its raw text — how the failure
  /// signature travels through parsing as an opaque canonical string.
  std::string raw_value() {
    skip_ws();
    const std::size_t start = pos_;
    skip_value();
    return std::string(text_.substr(start, pos_ - start));
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  std::size_t offset() const { return pos_; }

  void check(bool ok, const std::string& what) {
    VSPARSE_CHECK_RAISE(ok, ErrorCode::kMalformedFormat, "serve.recorder",
                        "malformed repro bundle at offset " << pos_ << ": "
                                                            << what);
  }

 private:
  void skip_value() {
    skip_ws();
    check(pos_ < text_.size(), "unexpected end of input");
    const char ch = text_[pos_];
    if (ch == '{') {
      ++pos_;
      if (consume('}')) return;
      do {
        (void)string();
        expect(':');
        skip_value();
      } while (consume(','));
      expect('}');
    } else if (ch == '[') {
      ++pos_;
      if (consume(']')) return;
      do {
        skip_value();
      } while (consume(','));
      expect(']');
    } else if (ch == '"') {
      (void)string();
    } else if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      (void)number();
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

ReproBundle parse_bundle_object(ReproReader& r) {
  ReproBundle b;
  bool have_op = false, have_seed = false, have_signature = false;
  r.expect('{');
  if (!r.consume('}')) {
    do {
      const std::string key = r.string();
      r.expect(':');
      if (key == "request_id") {
        b.request_id = r.u64();
      } else if (key == "tick") {
        b.tick = r.u64();
      } else if (key == "device") {
        b.device = static_cast<int>(r.u64());
      } else if (key == "op") {
        b.spec.op = parse_op(r.string(), r.offset());
        have_op = true;
      } else if (key == "m") {
        b.spec.m = static_cast<int>(r.u64());
      } else if (key == "k") {
        b.spec.k = static_cast<int>(r.u64());
      } else if (key == "v") {
        b.spec.v = static_cast<int>(r.u64());
      } else if (key == "sparsity") {
        b.spec.sparsity = r.number();
      } else if (key == "data_seed") {
        b.spec.data_seed = r.u64();
        have_seed = true;
      } else if (key == "threads") {
        b.threads = static_cast<int>(r.u64());
      } else if (key == "ecc_burst") {
        b.ecc_burst = r.boolean();
      } else if (key == "watchdog_cta_ops") {
        b.watchdog_cta_ops = r.u64();
      } else if (key == "device_fault") {
        b.device_fault = r.string();
        r.check(b.device_fault == "none" || b.device_fault == "wedged" ||
                    b.device_fault == "dead",
                "unknown device_fault");
      } else if (key == "memory_quota_bytes") {
        b.memory_quota_bytes = static_cast<std::size_t>(r.u64());
      } else if (key == "retry") {
        r.expect('{');
        if (!r.consume('}')) {
          do {
            const std::string rk = r.string();
            r.expect(':');
            if (rk == "max_retries") {
              b.retry.max_retries = static_cast<int>(r.u64());
            } else if (rk == "backoff_base_cycles") {
              b.retry.backoff_base_cycles = r.u64();
            } else if (rk == "backoff_multiplier") {
              b.retry.backoff_multiplier = static_cast<int>(r.u64());
            } else if (rk == "seed") {
              b.retry.seed = r.u64();
            } else {
              r.check(false, "unknown retry key \"" + rk + "\"");
            }
          } while (r.consume(','));
          r.expect('}');
        }
      } else if (key == "first_request_id") {
        b.first_request_id = r.u64();
      } else if (key == "open_kernels") {
        r.expect('[');
        if (!r.consume(']')) {
          do {
            b.open_kernels.push_back(r.string());
          } while (r.consume(','));
          r.expect(']');
        }
      } else if (key == "options_digest") {
        b.options_digest = r.u64();
      } else if (key == "signature") {
        b.signature = r.raw_value();
        have_signature = true;
      } else {
        r.check(false, "unknown bundle key \"" + key + "\"");
      }
    } while (r.consume(','));
    r.expect('}');
  }
  r.check(have_op && have_seed && have_signature,
          "bundle missing op/data_seed/signature");
  r.check(b.spec.m >= 1 && b.spec.k >= 1 && b.spec.v >= 1 && b.threads >= 1,
          "non-positive shape or thread count");
  r.check(b.spec.sparsity >= 0.0 && b.spec.sparsity < 1.0,
          "sparsity out of [0,1)");
  return b;
}

/// Static quarantine gate for replay: a snapshot of the Open health
/// keys stands in for the live tracker.
bool snapshot_gate(void* ctx, const char* kernel, bool abft) {
  const auto* open = static_cast<const std::vector<std::string>*>(ctx);
  std::string key = kernel;
  if (abft) key += "+abft";
  for (const std::string& k : *open) {
    if (k == key) return false;
  }
  return true;
}

}  // namespace

std::uint64_t ReproBundle::compute_digest() const {
  std::uint64_t h = mix64(0x4ec0bd ^ request_id);
  h = mix64(h ^ tick);
  h = mix64(h ^ static_cast<std::uint64_t>(device));
  h = mix64(h ^ static_cast<std::uint64_t>(spec.op));
  h = mix64(h ^ static_cast<std::uint64_t>(spec.m));
  h = mix64(h ^ static_cast<std::uint64_t>(spec.k));
  h = mix64(h ^ static_cast<std::uint64_t>(spec.v));
  h = mix_string(h, format_sparsity(spec.sparsity));
  h = mix64(h ^ spec.data_seed);
  h = mix64(h ^ static_cast<std::uint64_t>(threads));
  h = mix64(h ^ (ecc_burst ? 1 : 0));
  h = mix64(h ^ watchdog_cta_ops);
  h = mix_string(h, device_fault);
  h = mix64(h ^ static_cast<std::uint64_t>(memory_quota_bytes));
  h = mix64(h ^ static_cast<std::uint64_t>(retry.max_retries));
  h = mix64(h ^ retry.backoff_base_cycles);
  h = mix64(h ^ static_cast<std::uint64_t>(retry.backoff_multiplier));
  h = mix64(h ^ retry.seed);
  h = mix64(h ^ first_request_id);
  for (const std::string& k : open_kernels) h = mix_string(h, k);
  return h;
}

std::string ReproBundle::to_json() const {
  std::ostringstream os;
  os << "{\"request_id\":" << request_id << ",\"tick\":" << tick
     << ",\"device\":" << device << ",\"op\":\"" << request_op_name(spec.op)
     << "\",\"m\":" << spec.m << ",\"k\":" << spec.k << ",\"v\":" << spec.v
     << ",\"sparsity\":" << format_sparsity(spec.sparsity)
     << ",\"data_seed\":" << spec.data_seed << ",\"threads\":" << threads
     << ",\"ecc_burst\":" << (ecc_burst ? "true" : "false")
     << ",\"watchdog_cta_ops\":" << watchdog_cta_ops << ",\"device_fault\":\""
     << device_fault << "\",\"memory_quota_bytes\":" << memory_quota_bytes
     << ",\"retry\":{\"max_retries\":" << retry.max_retries
     << ",\"backoff_base_cycles\":" << retry.backoff_base_cycles
     << ",\"backoff_multiplier\":" << retry.backoff_multiplier
     << ",\"seed\":" << retry.seed << "}"
     << ",\"first_request_id\":" << first_request_id << ",\"open_kernels\":[";
  for (std::size_t i = 0; i < open_kernels.size(); ++i) {
    if (i) os << ",";
    os << "\"" << open_kernels[i] << "\"";
  }
  os << "],\"options_digest\":" << options_digest
     << ",\"signature\":" << signature << "}";
  return os.str();
}

std::string signature_json(const std::vector<ServeReport>& reports,
                           std::size_t first, const ExecOutcome& outcome) {
  std::ostringstream os;
  os << "{\"final_code\":\"" << error_code_name(outcome.final_code)
     << "\",\"final_site\":\"" << outcome.final_site << "\",\"attempts\":[";
  bool any = false;
  for (std::size_t ri = first; ri < reports.size(); ++ri) {
    const ServeReport& rep = reports[ri];
    for (const ServeAttempt& at : rep.attempts) {
      if (any) os << ",";
      any = true;
      os << "{\"op\":\"" << rep.op << "\",\"rung\":\""
         << serve_rung_name(at.rung) << "\",\"attempt\":" << at.attempt
         << ",\"backoff_cycles\":" << at.backoff_cycles << ",\"outcome\":\""
         << (at.ok ? "ok" : error_code_name(at.code)) << "\",\"site\":\""
         << at.site << "\"}";
    }
  }
  os << "]}";
  return os.str();
}

std::vector<ReproBundle> parse_repro_json(std::string_view text) {
  constexpr std::size_t kMaxReproBytes = std::size_t{4} << 20;
  VSPARSE_CHECK_RAISE(text.size() <= kMaxReproBytes,
                      ErrorCode::kMalformedFormat, "serve.recorder",
                      "repro artifact is " << text.size()
                                           << " bytes (cap "
                                           << kMaxReproBytes << ")");
  ReproReader r(text);
  std::vector<ReproBundle> bundles;
  // A whole recorder document starts with a "schema" key; a bare
  // bundle starts with any bundle key.  Disambiguate by peeking at the
  // first key of the top-level object.
  r.expect('{');
  const std::string first_key = r.string();
  r.expect(':');
  if (first_key == "schema") {
    const std::string schema = r.string();
    r.check(schema == "vsparse-repro-v1",
            "unsupported schema \"" + schema + "\"");
    while (r.consume(',')) {
      const std::string key = r.string();
      r.expect(':');
      if (key == "bundles") {
        r.expect('[');
        if (!r.consume(']')) {
          do {
            bundles.push_back(parse_bundle_object(r));
          } while (r.consume(','));
          r.expect(']');
        }
      } else if (key == "dropped") {
        (void)r.u64();
      } else {
        r.check(false, "unknown document key \"" + key + "\"");
      }
    }
    r.expect('}');
    r.check(r.at_end(), "trailing bytes after document");
    return bundles;
  }
  // Bare bundle: re-parse from the top with the bundle grammar.
  ReproReader r2(text);
  bundles.push_back(parse_bundle_object(r2));
  r2.check(r2.at_end(), "trailing bytes after bundle");
  return bundles;
}

bool FlightRecorder::capture(ReproBundle bundle) {
  if (bundles_.size() >= capacity_) {
    ++dropped_;
    return false;
  }
  bundle.options_digest = bundle.compute_digest();
  bundles_.push_back(std::move(bundle));
  return true;
}

std::string FlightRecorder::to_json() const {
  std::ostringstream os;
  os << "{\"schema\":\"vsparse-repro-v1\",\"bundles\":[";
  for (std::size_t i = 0; i < bundles_.size(); ++i) {
    if (i) os << ",\n";
    os << bundles_[i].to_json();
  }
  os << "],\"dropped\":" << dropped_ << "}\n";
  return os.str();
}

ReplayResult replay_bundle(const ReproBundle& bundle) {
  gpusim::DeviceConfig hw = gpusim::DeviceConfig::volta_v100();
  hw.dram_capacity = std::size_t{1} << 26;  // the scheduler's arena size
  gpusim::Device dev(hw);

  ServePolicy policy;
  policy.retry = bundle.retry;
  policy.ladder = true;
  policy.memory_quota_bytes = bundle.memory_quota_bytes;
  policy.kernel_gate = &snapshot_gate;
  // snapshot_gate only reads; the const_cast keeps ServePolicy's
  // void* context signature unchanged.
  policy.kernel_gate_ctx =
      const_cast<std::vector<std::string>*>(&bundle.open_kernels);

  Supervisor sup(dev, policy);
  sup.set_next_request_id(bundle.first_request_id);

  if (bundle.device_fault == "wedged") {
    dev.set_device_fault(gpusim::DeviceFault::kWedged);
  } else if (bundle.device_fault == "dead") {
    dev.set_device_fault(gpusim::DeviceFault::kDead);
  }

  ExecEnv env;
  env.threads = bundle.threads;
  env.ecc_burst = bundle.ecc_burst;
  env.watchdog_cta_ops = bundle.watchdog_cta_ops;

  ReplayResult result;
  result.expected_signature = bundle.signature;
  result.outcome = execute_request(sup, bundle.spec, env);
  result.got_signature = signature_json(sup.reports(), 0, result.outcome);
  result.signature_match = result.got_signature == result.expected_signature;
  return result;
}

}  // namespace vsparse::serve
