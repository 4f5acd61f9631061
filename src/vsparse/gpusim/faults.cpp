#include "vsparse/gpusim/faults.hpp"

#include <cstring>
#include <sstream>

#include "vsparse/common/rng.hpp"
#include "vsparse/gpusim/stats.hpp"
#include "vsparse/gpusim/trace/trace.hpp"

namespace vsparse::gpusim {
namespace {

// Deterministic per-access decision hash.  Everything a rate fault
// needs (fire? which bit? which lane byte?) derives from this one
// value, so a decision costs one hash on the slow path only.
std::uint64_t decision(std::uint64_t seed, FaultSite site, int sm_id,
                       std::uint64_t count) {
  std::uint64_t h = mix64(seed ^ (0xabcdull + static_cast<std::uint64_t>(site)));
  h = mix64(h ^ static_cast<std::uint64_t>(sm_id));
  return mix64(h ^ count);
}

// p in [0,1] compared against the top 53 bits of the hash.
bool fires(std::uint64_t h, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^53
  return u < p;
}

// Flip `n_bits` adjacent bits starting at flat bit index `bit` within
// the `len`-byte buffer; bits that fall off the end are dropped.
int flip_bits(void* data, std::size_t len, int bit, int n_bits) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  int flipped = 0;
  for (int i = 0; i < n_bits; ++i) {
    const int b = bit + i;
    const std::size_t byte = static_cast<std::size_t>(b) >> 3;
    if (byte >= len) break;
    bytes[byte] ^= static_cast<std::uint8_t>(1u << (b & 7));
    ++flipped;
  }
  return flipped;
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kDramRead: return "dram";
    case FaultSite::kMmaFrag: return "mma";
    default: return "?";
  }
}

EccError::EccError(FaultSite site, std::uint64_t addr, int sm_id)
    : vsparse::Error(ErrorCode::kEccUncorrectable, "gpusim.ecc", [&] {
        std::ostringstream os;
        os << "EccError: uncorrectable (double-bit) upset on "
           << fault_site_name(site) << " read at device addr 0x" << std::hex
           << addr << std::dec << " (sm " << sm_id << ")";
        return os.str();
      }()),
      site_(site),
      addr_(addr),
      sm_id_(sm_id) {}

FaultPlan::FaultPlan(std::uint64_t seed, bool ecc_enabled)
    : seed_(seed), ecc_(ecc_enabled) {}

void FaultPlan::add_target(const FaultTarget& target) {
  VSPARSE_CHECK_MSG(target.n_bits >= 1, "FaultTarget: n_bits must be >= 1");
  VSPARSE_CHECK_MSG(target.bit >= 0, "FaultTarget: bit must be >= 0");
  targets_.push_back(target);
  if (num_sms_ > 0) fired_.resize(targets_.size() * num_sms_, 0);
}

void FaultPlan::prepare(int num_sms) {
  VSPARSE_CHECK_MSG(num_sms > 0, "FaultPlan::prepare: num_sms must be > 0");
  if (num_sms_ == num_sms) {
    fired_.resize(targets_.size() * static_cast<std::size_t>(num_sms_), 0);
    return;
  }
  VSPARSE_CHECK_MSG(num_sms_ == 0,
                    "FaultPlan: already prepared for a different SM count");
  num_sms_ = num_sms;
  fired_.assign(targets_.size() * static_cast<std::size_t>(num_sms_), 0);
}

namespace {

// Shared post-flip ECC bookkeeping.  Returns true when the flip was
// corrected (data must be restored by the caller); throws on a
// detected-uncorrectable upset.  The single place every fault outcome
// passes through, so it is also where fault trace events are emitted.
bool ecc_scrub(FaultState& st, FaultSite site, std::uint64_t addr,
               int flipped, KernelStats& stats) {
  FaultPlan& plan = *st.plan;
  plan.note_injected();
  ++stats.faults_injected;
  if (st.trace != nullptr) {
    st.trace->emit(TraceEventKind::kFaultInjected, /*cta=*/-1, /*warp=*/-1,
                   static_cast<std::uint64_t>(site), addr);
  }
  if (!(plan.ecc() && site == FaultSite::kDramRead)) return false;
  if (flipped == 1) {
    plan.note_masked();
    ++stats.faults_masked;
    if (st.trace != nullptr) {
      st.trace->emit(TraceEventKind::kFaultMasked, /*cta=*/-1, /*warp=*/-1,
                     static_cast<std::uint64_t>(site), addr);
    }
    return true;
  }
  plan.note_detected();
  ++stats.faults_detected;
  if (st.trace != nullptr) {
    st.trace->emit(TraceEventKind::kFaultDetected, /*cta=*/-1, /*warp=*/-1,
                   static_cast<std::uint64_t>(site), addr);
  }
  throw EccError(site, addr, st.sm_id);
}

}  // namespace

void FaultState::on_global_read(std::uint64_t addr, void* data,
                                std::size_t len, KernelStats& stats) {
  const std::uint64_t count = dram_reads++;
  auto* bytes = static_cast<std::uint8_t*>(data);

  // Targeted upsets: any armed target whose byte address falls inside
  // [addr, addr + len) strikes this read.
  const auto& targets = plan->targets();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const FaultTarget& tgt = targets[t];
    if (tgt.site != FaultSite::kDramRead) continue;
    if (tgt.addr < addr || tgt.addr >= addr + len) continue;
    std::uint8_t& armed = plan->fired(t, sm_id);
    if (armed && !tgt.sticky) continue;
    armed = 1;
    const std::size_t off = static_cast<std::size_t>(tgt.addr - addr);
    std::uint8_t saved = bytes[off];
    const int flipped =
        flip_bits(bytes + off, len - off, tgt.bit & 7, tgt.n_bits);
    if (ecc_scrub(*this, tgt.site, tgt.addr, flipped, stats))
      bytes[off] = saved;  // single-bit: SEC-DED corrected in flight
  }

  // Rate upsets: one decision per value read; single-bit.
  const double rate = plan->rates().dram_read;
  if (rate > 0.0) {
    const std::uint64_t h =
        decision(plan->seed(), FaultSite::kDramRead, sm_id, count);
    if (fires(h, rate)) {
      const std::size_t off = static_cast<std::size_t>((h >> 8) % len);
      std::uint8_t saved = bytes[off];
      flip_bits(bytes + off, len - off, static_cast<int>((h >> 3) & 7), 1);
      if (ecc_scrub(*this, FaultSite::kDramRead, addr + off, 1, stats))
        bytes[off] = saved;
    }
  }
}

void FaultState::on_mma_frags(void* a, std::size_t a_len, void* b,
                              std::size_t b_len, KernelStats& stats) {
  const std::uint64_t count = mma_calls++;

  // For kMmaFrag, FaultTarget::addr is this SM's MMA call index and
  // FaultTarget::bit is the flat bit index into the A|B byte stream.
  const std::size_t total_bits = (a_len + b_len) * 8;
  auto flip_flat = [&](int bit, int n_bits) {
    int flipped = 0;
    for (int i = 0; i < n_bits; ++i) {
      const std::size_t fb = static_cast<std::size_t>(bit) + i;
      if (fb >= total_bits) break;
      const std::size_t byte = fb >> 3;
      std::uint8_t* p = byte < a_len
                            ? static_cast<std::uint8_t*>(a) + byte
                            : static_cast<std::uint8_t*>(b) + (byte - a_len);
      *p ^= static_cast<std::uint8_t>(1u << (fb & 7));
      ++flipped;
    }
    return flipped;
  };

  const auto& targets = plan->targets();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const FaultTarget& tgt = targets[t];
    if (tgt.site != FaultSite::kMmaFrag || tgt.addr != count) continue;
    std::uint8_t& armed = plan->fired(t, sm_id);
    if (armed && !tgt.sticky) continue;
    armed = 1;
    const int flipped = flip_flat(tgt.bit, tgt.n_bits);
    ecc_scrub(*this, tgt.site, count, flipped, stats);
  }

  const double rate = plan->rates().mma_frag;
  if (rate > 0.0) {
    const std::uint64_t h =
        decision(plan->seed(), FaultSite::kMmaFrag, sm_id, count);
    if (fires(h, rate)) {
      flip_flat(static_cast<int>((h >> 8) % total_bits), 1);
      ecc_scrub(*this, FaultSite::kMmaFrag, count, 1, stats);
    }
  }
}

}  // namespace vsparse::gpusim
